package transport

import (
	"bytes"
	"testing"
	"time"

	"prism/internal/memory"
	"prism/internal/wire"
)

// sentIssuer records what a Reclaimer hands to a connection: the payloads
// of its fire-and-forget sends, by reference, as a transport holds them
// while a request is in flight.
type sentIssuer struct {
	ops  []wire.Op
	sent [][]byte
}

func (s *sentIssuer) Ops(n int) []wire.Op { s.ops = make([]wire.Op, n); return s.ops }
func (s *sentIssuer) IssueAsync(ops []wire.Op) error {
	if len(ops) != 1 || ops[0].Code != wire.OpSend {
		panic("reclaimer sent something other than one SEND")
	}
	s.sent = append(s.sent, ops[0].Data)
	return nil
}
func (s *sentIssuer) Issue([]wire.Op) ([]wire.Result, error) { panic("reclamation waits for nothing") }
func (s *sentIssuer) Temp() (memory.Addr, memory.RKey)       { return 0, 0 }
func (s *sentIssuer) Sleep(time.Duration)                    {}

// TestReclaimer holds the client half of §3.2's protocol: records batch
// behind the opcode up to the threshold, Retire alone never sends, a flush
// goes to the control connection when there is one, and what was sent does
// not change when the batch buffer refills.
func TestReclaimer(t *testing.T) {
	const op = 7
	data, ctrl := &sentIssuer{}, &sentIssuer{}
	r := NewReclaimer(data, op, 3)

	if err := r.Flush(); err != nil || len(data.sent) != 0 {
		t.Fatalf("flushing nothing sent %d requests (err %v)", len(data.sent), err)
	}
	for i, rec := range [][]byte{{1, 1}, {2, 2}} {
		r.Retire(rec)
		if r.Full() {
			t.Fatalf("full after %d of 3 records", i+1)
		}
	}
	r.Retire([]byte{3, 3})
	if !r.Full() {
		t.Fatal("not full at the threshold")
	}
	if len(data.sent) != 0 {
		t.Fatal("Retire sent a batch; the application chooses the flush points")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	first := []byte{op, 1, 1, 2, 2, 3, 3}
	if len(data.sent) != 1 || !bytes.Equal(data.sent[0], first) {
		t.Fatalf("sent %v, want one payload %v", data.sent, first)
	}
	if r.Full() {
		t.Fatal("still full after the flush")
	}

	// The first request may still be in flight while the next batch
	// builds: its payload must not alias the batch buffer.
	r.Ctrl = ctrl
	r.Retire([]byte{9, 9})
	if !bytes.Equal(data.sent[0], first) {
		t.Fatalf("the next batch rewrote an in-flight payload: %v", data.sent[0])
	}
	if err := r.Flush(); err != nil { // a partial batch flushes too
		t.Fatal(err)
	}
	if len(data.sent) != 1 {
		t.Fatal("a flush with a control connection set used the data connection")
	}
	if want := []byte{op, 9, 9}; len(ctrl.sent) != 1 || !bytes.Equal(ctrl.sent[0], want) {
		t.Fatalf("control connection got %v, want one payload %v", ctrl.sent, want)
	}
}
