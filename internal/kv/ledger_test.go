package kv

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/model"
	"prism/internal/transport"
	"prism/internal/tx"
	"prism/internal/wire"
)

// ledger is what one client call cost on the wire: the dependent waits
// (an Issue, or the wait of a fan-out round), and the requests it sent,
// one-sided (verbs the NIC answers) or two-sided (an RPC the server's CPU
// answers), and the client-side CRC checks Pilaf's GET sleeps for (§6.2).
// ops, reqBytes and respBytes are the ops those requests carried, their
// canonical wire bytes, and the canonical bytes of the responses an Issue
// returned; a fan-out round's completions are not counted, because a
// straggler is logged at different times on the two transports.
type ledger struct {
	waits, oneSided, twoSided, crcChecks int
	ops, reqBytes, respBytes             int
}

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
			l.respBytes += len(f[3]) / 2 // issue req -> resp err=...
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
		l.ops += len(r.Ops)
		l.reqBytes += len(b)
	}
	return l
}

// ledgerRow is one client call and the ledger it must cost.
type ledgerRow[C any] struct {
	name string
	call func(c C) error
	want ledger
}

// checkLedger runs the rows in order through one client (newClient over
// recording issuers to n servers, one log for all), on the simulator and
// over net.Pipes, each time against stores provision builds, one per
// server, and holds every row to its ledger on both. The events are
// tallied after the runs: a row runs inside a simulation process, where
// tally may not stop the test.
func checkLedger[C any](t *testing.T, n int, provision func(transport.Host), newClient func([]transport.Issuer) C, crc time.Duration, rows []ledgerRow[C]) {
	t.Helper()
	var events [2][][]string
	run := func(side int) func([]transport.Issuer) {
		return func(group []transport.Issuer) {
			var log []string
			rec := make([]transport.Issuer, len(group))
			for i, iss := range group {
				rec[i] = newRecIssuer(iss, &log)
			}
			c := newClient(rec)
			for _, r := range rows {
				mark := len(log)
				if err := r.call(c); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
				events[side] = append(events[side], log[mark:])
			}
		}
	}
	runGroupOverSim(n, provision, run(0))
	runGroupOverLive(t, n, provision, run(1))
	for i, r := range rows {
		if sim := tally(t, events[0][i], crc); sim != r.want {
			t.Errorf("%s on the simulator: %+v, want %+v", r.name, sim, r.want)
		} else if live := tally(t, events[1][i], crc); live != sim {
			t.Errorf("%s over a socket: %+v, on the simulator %+v", r.name, live, sim)
		}
	}
}

// TestRoundTripLedger holds the stores' client calls to the round trips
// the paper counts, on the simulator and over a net.Pipe, the two equal,
// and pins the ops and wire bytes each call sends (DESIGN.md §1's table).
// PRISM-KV (§6.1, §6.2): a GET is one indirect bounded READ, one round
// trip and no server CPU, not the two dependent READs of a one-sided hash
// table; a PUT is two, the slot probe and then the ALLOCATE-WRITE-CAS
// chain; a GetBatch of 16 GETs is one wait for 16 one-sided requests; a
// SCAN window is one; and FlushFrees hands the reclamations the PUT queued
// to the server in one two-sided RPC that nothing waits for. Pilaf (§6.2):
// a GET is those two dependent READs, the slot and then the entry, and a
// client-side CRC check; a PUT is one RPC to the server's CPU. PRISM-RS
// over three replicas (§7): a GET and a PUT are each two phases and no
// lock, a read round of one indirect READ per replica and then a write
// round of one ALLOCATE-WRITE-CAS chain per replica (a GET always writes
// back what it read), each round one wait for the first two answers; the
// displaced buffers wait in reclamation batches, which nothing sends yet.
// ABD-LOCK over three replicas (§7.2): a GET and a PUT are each four
// rounds of classic verbs, two more than PRISM-RS — a lock CAS at every
// replica waited to its end, then a READ and a WRITE of the data at the
// locked replicas (all three when nothing contends), then an unlocking
// CAS at each. PRISM-TX on one shard (§8): a one-key read-modify-write
// is three rounds of one-sided chains and no server CPU, the execution
// READ and then the commit's two, a validation chain and an
// ALLOCATE-WRITE-CAS install. Over two shards the commit is still those
// two rounds, each one wait for a chain per key posted to both shards at
// once: a read-modify-write of n keys waits for its n execution READs and
// then two more, whether its keys sit on one shard or both. FaRM (§8.1)
// pays its two dependent READs (index, object) to execute, then three
// commit phases, two of them RPCs: the lock RPC, the validation READ and
// the update+unlock RPC. An abort is
// counted apart from the transaction that retries it: a transaction whose
// read another committed over aborts at its first commit round (PRISM-TX's
// validation chain, FaRM's lock RPC), with nothing to undo.
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
		checkLedger(t, 1, func(host transport.Host) {
			srv, err := NewServerOn(host, DefaultOptions(32, 64))
			if err != nil {
				t.Fatal(err)
			}
			load(t, srv)
			meta = srv.Meta()
		}, func(g []transport.Issuer) *Client { return NewClient(g[0], meta, 1) }, 0, []ledgerRow[*Client]{
			{"get", func(c *Client) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 1, oneSided: 1, ops: 1, reqBytes: 71, respBytes: 62}},
			// An overwrite: the old buffer is queued for reclamation, not sent.
			{"put", func(c *Client) error { return c.Put(2, diffValue(2, 1)) }, ledger{waits: 2, oneSided: 2, ops: 5, reqBytes: 390, respBytes: 187}},
			{"get-batch-16", func(c *Client) error {
				return c.GetBatch(batch, func(i int, _ []byte, err error) {
					if err != nil {
						t.Errorf("GetBatch key %d: %v", batch[i], err)
					}
				})
			}, ledger{waits: 1, oneSided: 16, ops: 16, reqBytes: 1136}},
			{"scan-window", func(c *Client) error {
				_, err := c.Scan(0, 32<<10, func(int64, []byte) error { return nil })
				return err
			}, ledger{waits: 1, oneSided: 1, ops: 1, reqBytes: 103, respBytes: 606}},
			{"flush-frees", (*Client).FlushFrees, ledger{twoSided: 1, ops: 1, reqBytes: 84}},
		})
	})
	t.Run("pilaf", func(t *testing.T) {
		crc := model.Default().PilafCRCCost
		var meta PilafMeta
		checkLedger(t, 1, func(host transport.Host) {
			srv, err := NewPilafServer(host, DefaultOptions(32, 64))
			if err != nil {
				t.Fatal(err)
			}
			load(t, srv)
			meta = srv.Meta()
		}, func(g []transport.Issuer) *PilafClient { return NewPilafClient(g[0], meta, crc) }, crc, []ledgerRow[*PilafClient]{
			{"get", func(c *PilafClient) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 2, oneSided: 2, crcChecks: 1, ops: 2, reqBytes: 142, respBytes: 139}},
			{"put", func(c *PilafClient) error { return c.Put(2, diffValue(2, 1)) }, ledger{waits: 1, twoSided: 1, ops: 1, reqBytes: 91, respBytes: 38}},
			// The GET after it reads the new entry: still two READs and a check.
			{"get-after-put", func(c *PilafClient) error {
				v, err := c.Get(2)
				if err == nil && string(v) != string(diffValue(2, 1)) {
					t.Errorf("GET after PUT = %x", v)
				}
				return err
			}, ledger{waits: 2, oneSided: 2, crcChecks: 1, ops: 2, reqBytes: 142, respBytes: 141}},
		})
	})
	t.Run("prism-rs", func(t *testing.T) {
		const replicas, blockSize = 3, 16
		var metas []abd.Meta // of the replicas provisioned for the next client
		put := bytes.Repeat([]byte{0xAB}, blockSize)
		checkLedger(t, replicas, func(host transport.Host) {
			rep, err := abd.NewReplica(host, abd.ReplicaOptions{NBlocks: 4, BlockSize: blockSize, ExtraBuffers: 64})
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, rep.Meta())
		}, func(g []transport.Issuer) *abd.Client {
			c := abd.NewClient(1, g, metas)
			metas = nil
			return c
		}, 0, []ledgerRow[*abd.Client]{
			{"get", func(c *abd.Client) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 2, oneSided: 2 * replicas, ops: 12, reqBytes: 948}},
			{"put", func(c *abd.Client) error { return c.Put(2, put) }, ledger{waits: 2, oneSided: 2 * replicas, ops: 12, reqBytes: 948}},
			{"get-after-put", func(c *abd.Client) error {
				v, err := c.Get(2)
				if err == nil && !bytes.Equal(v, put) {
					t.Errorf("GET after PUT = %x", v)
				}
				return err
			}, ledger{waits: 2, oneSided: 2 * replicas, ops: 12, reqBytes: 948}},
		})
	})
	t.Run("abd-lock", func(t *testing.T) {
		const replicas, blockSize = 3, 16
		var metas []abd.LockMeta // of the replicas provisioned for the next client
		put := bytes.Repeat([]byte{0xCD}, blockSize)
		checkLedger(t, replicas, func(host transport.Host) {
			rep, err := abd.NewLockReplica(host, 4, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, rep.Meta())
		}, func(g []transport.Issuer) *abd.LockClient {
			c := abd.NewLockClient(1, g, metas, nil)
			metas = nil
			return c
		}, 0, []ledgerRow[*abd.LockClient]{
			{"get", func(c *abd.LockClient) error {
				_, err := c.Get(1)
				return err
			}, ledger{waits: 4, oneSided: 4 * replicas, ops: 12, reqBytes: 1020}},
			{"put", func(c *abd.LockClient) error { return c.Put(2, put) }, ledger{waits: 4, oneSided: 4 * replicas, ops: 12, reqBytes: 1020}},
			{"get-after-put", func(c *abd.LockClient) error {
				v, err := c.Get(2)
				if err == nil && !bytes.Equal(v, put) {
					t.Errorf("GET after PUT = %x", v)
				}
				return err
			}, ledger{waits: 4, oneSided: 4 * replicas, ops: 12, reqBytes: 1020}},
		})
	})
	const nSlots, maxValue = 32, 64
	value := bytes.Repeat([]byte{0xEF}, maxValue)
	t.Run("prism-tx", func(t *testing.T) {
		var meta tx.Meta
		checkLedger(t, 1, func(host transport.Host) {
			shard, err := tx.NewShard(host, tx.ShardOptions{NSlots: nSlots, MaxValue: maxValue, ExtraBuffers: 16})
			if err != nil {
				t.Fatal(err)
			}
			load(t, shard)
			meta = shard.Meta()
		}, func(g []transport.Issuer) *tx.Client {
			return tx.NewClient(1, g, []tx.Meta{meta})
		}, 0, txLedgerRows(t, func(c *tx.Client) rmwTx { return c.Begin() }, value, [3]ledger{
			{waits: 3, oneSided: 3, ops: 7, reqBytes: 665, respBytes: 91},
			{waits: 4, oneSided: 4, ops: 9, reqBytes: 783, respBytes: 184},
			{waits: 1, oneSided: 1, ops: 2, reqBytes: 214},
		}))
	})
	t.Run("prism-tx-two-shards", func(t *testing.T) {
		var metas []tx.Meta // of the shards provisioned for the next client
		checkLedger(t, 2, func(host transport.Host) {
			shard, err := tx.NewShard(host, tx.ShardOptions{NSlots: nSlots, MaxValue: maxValue, ExtraBuffers: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range batch {
				if k%2 == int64(len(metas)) { // key k lives on shard k mod 2
					if err := shard.Load(k, diffValue(k, 0)); err != nil {
						t.Fatalf("load %d: %v", k, err)
					}
				}
			}
			metas = append(metas, shard.Meta())
		}, func(g []transport.Issuer) *tx.Client {
			c := tx.NewClient(1, g, metas)
			metas = nil
			return c
		}, 0, []ledgerRow[*tx.Client]{
			{"rmw", func(c *tx.Client) error { return rmw(c.Begin(), value, 1) },
				ledger{waits: 3, oneSided: 3, ops: 7, reqBytes: 665, respBytes: 91}},
			{"rmw-two-keys-two-shards", func(c *tx.Client) error { return rmw(c.Begin(), value, 1, 2) },
				ledger{waits: 4, oneSided: 6, ops: 14, reqBytes: 1330, respBytes: 238}},
			{"rmw-four-keys-two-per-shard", func(c *tx.Client) error { return rmw(c.Begin(), value, 3, 4, 5, 6) },
				ledger{waits: 6, oneSided: 12, ops: 28, reqBytes: 2660, respBytes: 378}},
		})
	})
	t.Run("farm", func(t *testing.T) {
		var meta tx.FarmMeta
		checkLedger(t, 1, func(host transport.Host) {
			srv, err := tx.NewFarmServer(host, tx.ShardOptions{NSlots: nSlots, MaxValue: maxValue})
			if err != nil {
				t.Fatal(err)
			}
			load(t, srv)
			meta = srv.Meta()
		}, func(g []transport.Issuer) *tx.FarmClient {
			return tx.NewFarmClient(1, g, []tx.FarmMeta{meta})
		}, 0, txLedgerRows(t, func(c *tx.FarmClient) rmwTx { return c.Begin() }, value, [3]ledger{
			{waits: 5, oneSided: 3, twoSided: 2, ops: 5, reqBytes: 473, respBytes: 178},
			{waits: 7, oneSided: 5, twoSided: 2, ops: 7, reqBytes: 615, respBytes: 356},
			{waits: 1, twoSided: 1, ops: 1, reqBytes: 96},
		}))
	})
}

// rmwTx is what PRISM-TX's and FaRM's transactions share.
type rmwTx interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (tx.Timestamp, error)
}

// rmw reads every key, writes value over each and commits.
func rmw(t rmwTx, value []byte, keys ...int64) error {
	for _, k := range keys {
		if _, err := t.Read(k); err != nil {
			return err
		}
	}
	for _, k := range keys {
		t.Write(k, value)
	}
	_, err := t.Commit()
	return err
}

// txLedgerRows are the transaction rows of TestRoundTripLedger, costing
// want: a one-key read-modify-write that commits; a transaction that reads
// key 2 before a read-modify-write of key 2 commits over it; and that
// transaction's commit, which aborts.
func txLedgerRows[C any](t *testing.T, begin func(C) rmwTx, value []byte, want [3]ledger) []ledgerRow[C] {
	var doomed rmwTx
	return []ledgerRow[C]{
		{"rmw", func(c C) error { return rmw(begin(c), value, 1) }, want[0]},
		{"read-then-overwritten", func(c C) error {
			doomed = begin(c)
			if _, err := doomed.Read(2); err != nil {
				return err
			}
			return rmw(begin(c), value, 2)
		}, want[1]},
		{"aborted-commit", func(c C) error {
			doomed.Write(2, value)
			if _, err := doomed.Commit(); !errors.Is(err, tx.ErrAborted) {
				t.Errorf("commit over an overwritten read = %v, want %v", err, tx.ErrAborted)
			}
			return nil
		}, want[2]},
	}
}
