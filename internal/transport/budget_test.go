package transport

import (
	"io"
	"testing"
	"time"
)

// TestReadBudgetAdmitsWholeFrames: two readers share a budget and each
// receive a frame of three quarters of it. The first reader gets half its
// frame, then — after the second reader has had every chance to read its
// own first half — the rest. A frame takes all it needs once its growth
// passes readChunk, so the second reader waits at admission and both
// frames are read. A budget charged only as buffers double would let both
// readers grow to half the budget and then wait on each other for good.
func TestReadBudgetAdmitsWholeFrames(t *testing.T) {
	var b budget
	frame := stream(readBudget * 3 / 4)
	half := len(frame) / 2
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		fr := NewFrameReader(pr)
		fr.budget = &b
		go func() {
			_, payload, err := fr.Next()
			if err == nil && len(payload) != readBudget*3/4 {
				err = io.ErrShortBuffer
			}
			fr.reserve(0)
			done <- err
		}()
		go func() {
			if i == 0 {
				pw.Write(frame[:half])
				// Time for the other reader to take all it can. The test
				// passes whatever it does; the pause only lets a budget
				// that deadlocks show it.
				time.Sleep(50 * time.Millisecond)
				pw.Write(frame[half:])
			} else {
				pw.Write(frame)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("two frames that each fit the budget alone were not both read")
		}
	}
	if b.used != 0 {
		t.Fatalf("%d budget bytes still held after both readers gave theirs back", b.used)
	}
}

// TestReadBudgetLeavesBurstGrowthOut: a reader whose buffer a burst of
// small frames grew to readChunk holds no budget while it stays open, so
// a MaxFrame frame on another reader is admitted and read. Charging
// burst growth to the budget would hold part of it for the life of the
// socket, and a frame that needs all of it would wait for good.
func TestReadBudgetLeavesBurstGrowthOut(t *testing.T) {
	var b budget
	pr, pw := io.Pipe()
	defer pw.Close()
	burst := NewFrameReader(pr)
	burst.budget = &b
	small := make([]int, 128)
	for i := range small {
		small[i] = 1 << 10
	}
	go pw.Write(stream(small...))
	for range small {
		if _, _, err := burst.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if len(burst.buf) != readChunk || b.used != 0 {
		t.Fatalf("after a burst: buffer %d bytes, budget %d bytes held; want %d and 0", len(burst.buf), b.used, readChunk)
	}

	pr2, pw2 := io.Pipe()
	big := NewFrameReader(pr2)
	big.budget = &b
	go func() { pw2.Write(stream(MaxFrame - 1)); pw2.Close() }()
	done := make(chan error, 1)
	go func() {
		_, payload, err := big.Next()
		if err == nil && len(payload) != MaxFrame-1 {
			err = io.ErrShortBuffer
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		b.close()
		t.Fatalf("a MaxFrame frame beside a burst-grown reader was not admitted (budget %d of %d bytes held)", b.used, readBudget)
	}
}
