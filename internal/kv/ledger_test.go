package kv

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"prism/internal/model"
	"prism/internal/transport"
	"prism/internal/wire"
)

// ledger is what one client call cost on the wire: the dependent waits
// (an Issue, or the wait of a fan-out round), and the requests it sent,
// one-sided (verbs the NIC answers) or two-sided (an RPC the server's CPU
// answers), and the client-side CRC checks Pilaf's GET sleeps for (§6.2).
type ledger struct{ waits, oneSided, twoSided, crcChecks int }

// tally counts a ledger from a recIssuer log. A sleep of crc (when crc is
// not zero) is a CRC check. Any other sleep is a retry backoff, which a
// ledger row does not average in: it fails the tally.
func tally(t *testing.T, events []string, crc time.Duration) (l ledger) {
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
		case f[0] == "sleep" && crc > 0 && f[1] == crc.String():
			l.crcChecks++
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

// ledgerRow is one client call and the ledger it must cost.
type ledgerRow[C any] struct {
	name string
	call func(c C) error
	want ledger
}

// checkLedger runs the rows in order through one client (newClient over a
// recording issuer), on the simulator and over a net.Pipe, each time
// against a store provision builds, and holds every row to its ledger on
// both. The events are tallied after the runs: a row runs inside a
// simulation process, where tally may not stop the test.
func checkLedger[C any](t *testing.T, provision func(transport.Host), newClient func(transport.Issuer) C, crc time.Duration, rows []ledgerRow[C]) {
	t.Helper()
	var events [2][][]string
	run := func(side int) func(transport.Issuer) {
		return func(iss transport.Issuer) {
			var log []string
			c := newClient(newRecIssuer(iss, &log))
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
		if sim := tally(t, events[0][i], crc); sim != r.want {
			t.Errorf("%s on the simulator: %+v, want %+v", r.name, sim, r.want)
		} else if live := tally(t, events[1][i], crc); live != sim {
			t.Errorf("%s over a socket: %+v, on the simulator %+v", r.name, live, sim)
		}
	}
}

// TestRoundTripLedger holds the stores' client calls to the round trips
// the paper counts, on the simulator and over a net.Pipe, the two equal.
// PRISM-KV (§6.1, §6.2): a GET is one indirect bounded READ, one round
// trip and no server CPU, not the two dependent READs of a one-sided hash
// table; a PUT is two, the slot probe and then the ALLOCATE-WRITE-CAS
// chain; a GetBatch of 16 GETs is one wait for 16 one-sided requests; a
// SCAN window is one; and FlushFrees hands the reclamations the PUT queued
// to the server in one two-sided RPC that nothing waits for. Pilaf (§6.2):
// a GET is those two dependent READs, the slot and then the entry, and a
// client-side CRC check; a PUT is one RPC to the server's CPU.
func TestRoundTripLedger(t *testing.T) {
	batch := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	load := func(t *testing.T, store interface{ Load(int64, []byte) error }) {
		for _, k := range batch {
			if err := store.Load(k, diffValue(k, 0)); err != nil {
				t.Fatalf("load %d: %v", k, err)
			}
		}
	}
	t.Run("prism-kv", func(t *testing.T) {
		var meta Meta
		checkLedger(t, func(host transport.Host) {
			srv, err := NewServerOn(host, DefaultOptions(32, 64))
			if err != nil {
				t.Fatal(err)
			}
			load(t, srv)
			meta = srv.Meta()
		}, func(iss transport.Issuer) *Client { return NewClient(iss, meta, 1) }, 0, []ledgerRow[*Client]{
			{"get", func(c *Client) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 1, oneSided: 1}},
			// An overwrite: the old buffer is queued for reclamation, not sent.
			{"put", func(c *Client) error { return c.Put(2, diffValue(2, 1)) }, ledger{waits: 2, oneSided: 2}},
			{"get-batch-16", func(c *Client) error {
				return c.GetBatch(batch, func(i int, _ []byte, err error) {
					if err != nil {
						t.Errorf("GetBatch key %d: %v", batch[i], err)
					}
				})
			}, ledger{waits: 1, oneSided: 16}},
			{"scan-window", func(c *Client) error {
				_, err := c.Scan(0, 32<<10, func(int64, []byte) error { return nil })
				return err
			}, ledger{waits: 1, oneSided: 1}},
			{"flush-frees", (*Client).FlushFrees, ledger{twoSided: 1}},
		})
	})
	t.Run("pilaf", func(t *testing.T) {
		crc := model.Default().PilafCRCCost
		var meta PilafMeta
		checkLedger(t, func(host transport.Host) {
			srv, err := NewPilafServer(host, DefaultOptions(32, 64))
			if err != nil {
				t.Fatal(err)
			}
			load(t, srv)
			meta = srv.Meta()
		}, func(iss transport.Issuer) *PilafClient { return NewPilafClient(iss, meta, crc) }, crc, []ledgerRow[*PilafClient]{
			{"get", func(c *PilafClient) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 2, oneSided: 2, crcChecks: 1}},
			{"put", func(c *PilafClient) error { return c.Put(2, diffValue(2, 1)) }, ledger{waits: 1, twoSided: 1}},
			// The GET after it reads the new entry: still two READs and a check.
			{"get-after-put", func(c *PilafClient) error {
				v, err := c.Get(2)
				if err == nil && string(v) != string(diffValue(2, 1)) {
					t.Errorf("GET after PUT = %x", v)
				}
				return err
			}, ledger{waits: 2, oneSided: 2, crcChecks: 1}},
		})
	})
}
