package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// A traced run repeats the workload with a span recorder that lives
// wholly in this package: nothing in the program under test is
// instrumented. Every call into kv gets a root span; every sampleEvery-th
// call is then replayed, request by request, through the exported
// function of each stage in datapath order against a shadow store, one
// child span per stage. What the root span holds beyond its children —
// syscalls, goroutine wakeups, queueing — is the operation's
// unattributed time.
const (
	sampleEvery       = 64
	untracedRefSlices = 16 // untraced slices a traced run measures first
	tracedSlices      = 24
	ladderIssues      = 20_000
)

// span is one timed interval. Spans of one operation share Op; Parent is
// the index of the span that caused this one, -1 for a root.
type span struct {
	name       uint16 // index into recorder.names
	op         uint64
	parent     int32
	start, end int64 // ns since the recorder was made
}

// recorder collects spans in memory; write dumps them when the run ends.
// One goroutine owns a recorder.
type recorder struct {
	t0    time.Time
	names []string
	ids   map[string]uint16
	spans []span
	cur   int32 // open root, parent of spans added meanwhile
	curOp uint64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), ids: map[string]uint16{}, cur: -1}
}

func (r *recorder) nameID(name string) uint16 {
	id, ok := r.ids[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = id
	}
	return id
}

// begin opens a root span for operation op and returns its index.
func (r *recorder) begin(name string, op uint64) int {
	r.spans = append(r.spans, span{name: r.nameID(name), op: op, parent: -1, start: int64(time.Since(r.t0))})
	r.cur, r.curOp = int32(len(r.spans)-1), op
	return int(r.cur)
}

// end closes the root span begin returned.
func (r *recorder) end(root int) {
	r.spans[root].end = int64(time.Since(r.t0))
	r.cur = -1
}

// root records a finished root span and leaves it open as the parent of
// the replay spans that follow.
func (r *recorder) root(name uint16, op uint64, start, end time.Time) {
	r.spans = append(r.spans, span{name: name, op: op, parent: -1, start: int64(start.Sub(r.t0)), end: int64(end.Sub(r.t0))})
	r.cur, r.curOp = int32(len(r.spans)-1), op
}

// add records a finished child of the open root.
func (r *recorder) add(name string, start, end time.Time) {
	r.spans = append(r.spans, span{name: r.nameID(name), op: r.curOp, parent: r.cur,
		start: int64(start.Sub(r.t0)), end: int64(end.Sub(r.t0))})
}

// layerRow is one line of the per-layer table: a span name's self time,
// its duration less what its children cover.
type layerRow struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfUS float64 `json:"self_us_total"`
	MeanUS float64 `json:"self_us_mean"`
}

// layerTable computes self times over the sampled operations: roots that
// have children, and those children. It also returns the mean
// unattributed time per sampled root.
func layerTable(recs []*recorder) (rows []layerRow, unattributedUS float64) {
	self := map[string]*layerRow{}
	var sampled int
	var rootSelf float64
	for _, r := range recs {
		covered := make(map[int32]int64)
		for _, s := range r.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			c, isParent := covered[int32(i)]
			if s.parent < 0 && !isParent {
				continue // an unsampled operation: a root span only
			}
			row := self[r.names[s.name]]
			if row == nil {
				row = &layerRow{Name: r.names[s.name]}
				self[row.Name] = row
			}
			d := float64(s.end-s.start-c) / 1e3
			row.Spans++
			row.SelfUS += d
			if s.parent < 0 {
				sampled++
				rootSelf += d
			}
		}
	}
	for _, row := range self {
		row.MeanUS = row.SelfUS / float64(row.Spans)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUS > rows[j].SelfUS })
	return rows, ratio(rootSelf, float64(sampled))
}

// writeTrace dumps the run's result (per-layer table included) and every
// recorder's spans to one JSON file. Spans are rows of
// [name index, op id, parent index, start ns, end ns]; parent indexes
// count within the recorder's own rows.
func writeTrace(path string, res *result, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(struct {
		Record  record   `json:"record"`
		Columns []string `json:"columns"`
	}{newRecord(res), []string{"name", "op", "parent", "start_ns", "end_ns"}})
	if err != nil {
		f.Close()
		return err
	}
	w.Write(head[:len(head)-1]) // reopen the object to append the recorders
	w.WriteString(`,"recorders":[`)
	var num []byte
	for i, r := range recs {
		if i > 0 {
			w.WriteByte(',')
		}
		names, err := json.Marshal(r.names)
		if err != nil {
			f.Close()
			return err
		}
		w.WriteString(`{"names":`)
		w.Write(names)
		w.WriteString(`,"spans":[`)
		for j, s := range r.spans {
			num = num[:0]
			if j > 0 {
				num = append(num, ',')
			}
			num = append(num, '[')
			num = strconv.AppendUint(num, uint64(s.name), 10)
			num = append(num, ',')
			num = strconv.AppendUint(num, s.op, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, int64(s.parent), 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.start, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.end, 10)
			num = append(num, ']')
			w.Write(num)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientTrace is one client's recorder and replay state. The client's
// goroutine owns it while a traced slice runs.
type clientTrace struct {
	rec    *recorder
	sh     *shadow
	calls  uint64
	rootID uint16
	err    error // first replay error

	req  wire.Request
	sreq wire.Request
	resp wire.Response
	dres wire.Response
	enc  []byte
	out  writeBuffer
	fw   *transport.FrameWriter
	fr   *transport.FrameReader
	feed replayFeed
}

// replayFeed hands the FrameReader the one frame the FrameWriter just
// flushed.
type replayFeed struct{ pending []byte }

func (f *replayFeed) Read(p []byte) (int, error) {
	n := copy(p, f.pending)
	f.pending = f.pending[n:]
	return n, nil
}

// newClientTrace makes the trace state of client id; spans is how many
// spans its traced slices will record, allocated up front so the traced
// loop never grows the slice.
func newClientTrace(id int, seed int64, valueSize, spans int) (*clientTrace, error) {
	sh, err := newShadow(seed, valueSize)
	if err != nil {
		return nil, err
	}
	t := &clientTrace{rec: newRecorder(), sh: sh}
	t.rec.spans = make([]span, 0, spans)
	t.rootID = t.rec.nameID("kv.call")
	t.fw = transport.NewFrameWriter(&t.out)
	t.fr = transport.NewFrameReader(&t.feed)
	t.req.Conn, t.resp.Conn = uint64(id+1), uint64(id+1)
	return t, nil
}

// afterCall records the call's root span and, every sampleEvery-th call,
// replays the requests the call issued.
func (t *clientTrace) afterCall(c *loadClient, start, end time.Time) {
	t.calls++
	t.rec.root(t.rootID, uint64(c.id)<<48|t.calls, start, end)
	if t.calls%sampleEvery != 0 {
		return
	}
	sh := t.sh
	switch c.env.spec.kind {
	case kindGet:
		t.replay(sh.getOps(c.lastKey))
	case kindGetBatch:
		for _, k := range c.keys {
			t.replay(sh.getOps(k))
		}
	case kindPutMix:
		if !c.lastPut {
			t.replay(sh.getOps(c.lastKey))
			break
		}
		t.replay(sh.probeOps(c.lastKey))
		t.replay(sh.putOps(c.lastKey, c.val))
	case kindScan:
		t.replay(sh.scanOps(c.lastKey))
	}
}

// replay walks one request through the stages a live request crosses,
// in order, timing each: request codec and framer, guard, executor,
// response codec and framer. The first error is kept for finish.
func (t *clientTrace) replay(ops []wire.Op) {
	stage := func(name string, fn func() error) {
		s := time.Now()
		err := fn()
		t.rec.add(name, s, time.Now())
		if err != nil && t.err == nil {
			t.err = fmt.Errorf("replaying %s: %w", name, err)
		}
	}
	// frame stages one frame to memory, flushes it and reads it back.
	frame := func(stageFrame func() error) (body []byte) {
		stage("transport.frame_stage", func() error {
			if err := stageFrame(); err != nil {
				return err
			}
			return t.fw.Flush()
		})
		t.feed.pending = t.out.b
		stage("transport.frame_next", func() (err error) { _, body, err = t.fr.Next(); return err })
		return body
	}
	t.req.Seq++
	t.req.Ops = ops
	stage("wire.encode_request", func() error { t.enc = wire.AppendRequest(t.enc[:0], &t.req); return nil })
	body := frame(func() error { return t.fw.StageRequest(&t.req) })
	stage("wire.decode_request", func() error { return wire.DecodeRequestAlias(&t.sreq, body) })
	guard := t.sh.space.Guard()
	stage("memory.guard_lock", func() error { guard.Lock(); return nil })
	stage("prism.exec", func() error { t.resp.Results = t.sh.execRequest(t.sreq.Ops); return nil })
	guard.Unlock()
	t.resp.Seq = t.req.Seq
	stage("wire.encode_response", func() error { t.enc = wire.AppendResponse(t.enc[:0], &t.resp); return nil })
	body = frame(func() error { return t.fw.StageResponse(&t.resp) })
	stage("wire.decode_response", func() error { return wire.DecodeResponseAlias(&t.dres, body) })
}

// tracer is the traced half of a live run: per-client recorders, the
// guard prober, and after the workload the ladder and stage costs.
type tracer struct {
	env    *liveEnv
	o      runOpts
	traces []*clientTrace

	probeStop chan struct{}
	probeDone sync.WaitGroup
	guardWait []int64 // ns the prober waited for the space guard

	tracedOpsPerSec []float64
}

// newTracer prepares tracing for slices of sliceOps operations.
func newTracer(env *liveEnv, o runOpts, sliceOps int64) (*tracer, error) {
	tr := &tracer{env: env, o: o}
	// Root spans, plus for each sampled call its requests' stage spans
	// (ten per request; a train is 16 requests, a PUT two).
	roots := tracedSlices * int(sliceOps/env.spec.callOps()) / len(env.clients)
	spans := roots + roots/sampleEvery*10*trainLen
	for _, c := range env.clients {
		ct, err := newClientTrace(c.id, o.seed, env.spec.valueSize, spans)
		if err != nil {
			return nil, err
		}
		tr.traces = append(tr.traces, ct)
	}
	return tr, nil
}

// attach turns tracing on for the next slice: clients record spans and a
// prober goroutine times Guard().Lock() a thousand times a second — the
// time work waits for the guard while the workload runs.
func (tr *tracer) attach() {
	for i, c := range tr.env.clients {
		c.tr = tr.traces[i]
	}
	tr.probeStop = make(chan struct{})
	tr.probeDone.Add(1)
	go func() {
		defer tr.probeDone.Done()
		guard := tr.env.ts.Space().Guard()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tr.probeStop:
				return
			case <-tick.C:
				t0 := time.Now()
				guard.Lock()
				w := time.Since(t0)
				guard.Unlock()
				tr.guardWait = append(tr.guardWait, int64(w))
			}
		}
	}()
}

func (tr *tracer) detach() {
	close(tr.probeStop)
	tr.probeDone.Wait()
	for _, c := range tr.env.clients {
		c.tr = nil
	}
}

// finish runs what follows the workload — ladder, generator share, stage
// costs — fills the per-layer metrics, prints the layer table and writes
// the span file. The environment is closed by now.
func (tr *tracer) finish(res *result) error {
	m := res.Metrics
	spec := tr.env.spec
	var recs []*recorder
	for _, t := range tr.traces {
		if t.err != nil {
			return t.err
		}
		recs = append(recs, t.rec)
	}
	rows, unattributed := layerTable(recs)
	m["load.unattributed_us"] = unattributed
	m["load.trace_overhead"] = 1 - ratio(bestQuartile("load.ops_per_s", tr.tracedOpsPerSec), m["load.ops_per_s"])
	slices.Sort(tr.guardWait)
	m["memory.guard_wait_p50_us"] = float64(percentileNS(tr.guardWait, 50)) / 1e3
	m["memory.guard_wait_p99_us"] = float64(percentileNS(tr.guardWait, 99)) / 1e3
	res.Samples["guard_probes"] = int64(len(tr.guardWait))
	res.Samples["sampled_ops"] = 0
	for _, t := range tr.traces {
		res.Samples["sampled_ops"] += int64(t.calls / sampleEvery)
	}

	pipe, unix, err := ladder(spec, tr.o)
	if err != nil {
		return err
	}
	m["transport.pipe_rtt_us"] = pipe
	m["transport.unix_rtt_us"] = unix
	m["transport.kernel_share"] = ratio(unix-pipe, unix)
	m["kv.get_overhead_us"] = m["load.p50_us"] - unix

	// The generator's own share: the same loop against a store that
	// answers from memory, over the real loop's mean time per call.
	gen, err := generatorNS(spec, tr.o)
	if err != nil {
		return err
	}
	realNS := float64(len(tr.env.clients)) * 1e9 * float64(spec.callOps()) / m["load.ops_per_s"]
	m["load.generator_share"] = ratio(gen, realNS)

	if err := stageCosts(m, spec.valueSize, spec.kind, tr.o.stageBatch()); err != nil {
		return err
	}
	res.Layers = rows
	return writeTrace(tr.o.traceOut, res, recs)
}

// ladder measures a bare one-op round trip (a 1-op Conn.Issue, no kv
// layer) twice: over net.Pipe, where no kernel is involved, and over the
// unix socket. It returns the two medians in microseconds.
func ladder(spec liveSpec, o runOpts) (pipeUS, unixUS float64, err error) {
	ts, store, err := newStore(o.seed, spec.valueSize)
	if err != nil {
		return 0, 0, err
	}
	meta := store.Meta()
	path := filepath.Join(o.dir, "ladder.sock")
	os.Remove(path)
	l, err := net.Listen("unix", path)
	if err != nil {
		return 0, 0, err
	}
	served := make(chan error, 2)
	go func() { served <- ts.Serve(l) }()
	a, b := net.Pipe()
	go func() { served <- ts.ServeConn(b) }()
	defer func() {
		ts.Shutdown(5 * time.Second)
		<-served
		<-served
	}()

	rtt := func(tc *transport.Client) (float64, error) {
		defer tc.Close()
		conn, err := tc.Connect()
		if err != nil {
			return 0, err
		}
		lat := make([]int64, 0, ladderIssues)
		n := ladderIssues / o.shrink
		for i := 0; i < n+n/10; i++ {
			ops := conn.Ops(1)
			key := int64(i) % nKeys
			ops[0] = prism.ReadBounded(meta.Key, meta.HashBase+memory.Addr(key*slotSize+8), uint64(entryHeader+spec.valueSize))
			t0 := time.Now()
			res, err := conn.Issue(ops)
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if res[0].Status != wire.StatusOK {
				return 0, fmt.Errorf("ladder READ status %v", res[0].Status)
			}
			if i >= n/10 { // the first tenth warms the path up
				lat = append(lat, int64(d))
			}
		}
		slices.Sort(lat)
		return float64(percentileNS(lat, 50)) / 1e3, nil
	}
	pc, err := transport.NewClientConn(a)
	if err != nil {
		return 0, 0, err
	}
	if pipeUS, err = rtt(pc); err != nil {
		return 0, 0, err
	}
	uc, err := transport.DialNetwork("unix", path)
	if err != nil {
		return 0, 0, err
	}
	unixUS, err = rtt(uc)
	return pipeUS, unixUS, err
}
