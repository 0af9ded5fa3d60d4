package kv

import (
	"encoding/hex"
	"strings"
	"testing"

	"prism/internal/transport"
	"prism/internal/wire"
)

// ledger is what one client call cost on the wire: the dependent waits
// (an Issue, or the wait of a fan-out round), and the requests it sent,
// one-sided (verbs the NIC answers) or two-sided (an RPC the server's CPU
// answers).
type ledger struct{ waits, oneSided, twoSided int }

// tally counts a ledger from a recIssuer log. A backoff sleep is a retry,
// which a ledger row does not average in: it fails the tally.
func tally(t *testing.T, events []string) (l ledger) {
	for _, ev := range events {
		f := strings.Fields(ev)
		var req string
		switch {
		case f[0] == "issue":
			l.waits++
			req = f[1]
		case f[0] == "async":
			req = f[1]
		case strings.HasPrefix(f[0], "post["):
			req = f[3] // post[slot] on i ops
		case f[0] == "await":
			l.waits++
		case f[0] == "sleep":
			t.Errorf("a retry backoff in a ledger row: %s", ev)
		}
		if req == "" {
			continue
		}
		b, _ := hex.DecodeString(req)
		r, err := wire.DecodeRequest(b)
		switch {
		case err != nil:
			t.Fatalf("event %q: %v", ev, err)
		case len(r.Ops) == 1 && r.Ops[0].Code == wire.OpSend:
			l.twoSided++
		default:
			l.oneSided++
		}
	}
	return l
}

// TestRoundTripLedger holds PRISM-KV's client calls to the round trips
// the paper counts (§6.1, §6.2): a GET is one indirect bounded READ, one
// round trip and no server CPU, not the two dependent READs of a one-sided
// hash table; a PUT is two, the slot probe and then the
// ALLOCATE-WRITE-CAS chain; a GetBatch of 16 GETs is one wait for 16
// one-sided requests; a SCAN window is one; and FlushFrees hands the
// reclamations the PUT queued to the server in one two-sided RPC that
// nothing waits for. The counts come from a recording issuer, on the
// simulator and over a net.Pipe, and the two must agree.
func TestRoundTripLedger(t *testing.T) {
	batch := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	rows := []struct {
		name string
		call func(c *Client) error
		want ledger
	}{
		{"get", func(c *Client) error {
			_, err := c.Get(1)
			return err
		}, ledger{1, 1, 0}},
		// An overwrite: the old buffer is queued for reclamation, not sent.
		{"put", func(c *Client) error { return c.Put(2, diffValue(2, 1)) }, ledger{2, 2, 0}},
		{"get-batch-16", func(c *Client) error {
			return c.GetBatch(batch, func(i int, _ []byte, err error) {
				if err != nil {
					t.Errorf("GetBatch key %d: %v", batch[i], err)
				}
			})
		}, ledger{1, 16, 0}},
		{"scan-window", func(c *Client) error {
			_, err := c.Scan(0, 32<<10, func(int64, []byte) error { return nil })
			return err
		}, ledger{1, 1, 0}},
		{"flush-frees", (*Client).FlushFrees, ledger{0, 0, 1}},
	}
	var meta Meta
	provision := func(host transport.Host) {
		srv, err := NewServerOn(host, DefaultOptions(32, 64))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range batch {
			if err := srv.Load(k, diffValue(k, 0)); err != nil {
				t.Fatalf("load %d: %v", k, err)
			}
		}
		meta = srv.Meta()
	}
	// Each row's events on the simulator and over the socket, tallied
	// after the runs: a row runs inside a simulation process, where tally
	// may not stop the test.
	var events [2][][]string
	run := func(side int) func(transport.Issuer) {
		return func(iss transport.Issuer) {
			var log []string
			c := NewClient(newRecIssuer(iss, &log), meta, 1)
			for _, r := range rows {
				mark := len(log)
				if err := r.call(c); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
				events[side] = append(events[side], log[mark:])
			}
		}
	}
	runOverSim(provision, run(0))
	runOverLive(t, provision, run(1))
	for i, r := range rows {
		if sim := tally(t, events[0][i]); sim != r.want {
			t.Errorf("%s on the simulator: %+v, want %+v", r.name, sim, r.want)
		} else if live := tally(t, events[1][i]); live != sim {
			t.Errorf("%s over a socket: %+v, on the simulator %+v", r.name, live, sim)
		}
	}
}
