package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/lockmgr"
	"nestedtx/internal/snap"
	"nestedtx/internal/tree"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

// A layer probe replays the workload's own generated transactions
// straight into one layer's exported functions, single-threaded and
// uncontended: what the layer costs by itself on this traffic, without
// the layers around it.

const (
	probeTxs      = 256  // transactions replayed by every probe
	generatorTxs  = 4096 // transactions planned to time the generator
	treeProbeIter = 50_000
)

type evKind uint8

const (
	evBegin evKind = iota
	evDo
	evSubBegin
	evSubCommit
	evSubAbort
	evCommit
)

// event is one step of a planned transaction, named as the runtime
// would name it.
type event struct {
	kind   evKind
	tx     tree.TID // the transaction acting (the new child for evSubBegin)
	access tree.TID // evDo: the access's own name
	obj    string
	op     nestedtx.Op
	val    nestedtx.Value
}

// planRecorder executes workload bodies against nothing: it implements
// txn by writing down what the body asked for.
type planRecorder struct {
	initial nestedtx.State
	state   map[string]nestedtx.State
	events  []event
}

type plannedTx struct {
	p    *planRecorder
	id   tree.TID
	next int
}

func (t *plannedTx) child() tree.TID {
	c := t.id.Child(t.next)
	t.next++
	return c
}

func (t *plannedTx) Do(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	st, ok := t.p.state[obj]
	if !ok {
		st = t.p.initial
	}
	st, v := op.Apply(st)
	t.p.state[obj] = st
	t.p.events = append(t.p.events, event{kind: evDo, tx: t.id, access: t.child(), obj: obj, op: op, val: v})
	return v, nil
}

func (t *plannedTx) Sub(fn func(txn) error) error {
	c := &plannedTx{p: t.p, id: t.child()}
	t.p.events = append(t.p.events, event{kind: evSubBegin, tx: c.id})
	if err := fn(c); err != nil {
		t.p.events = append(t.p.events, event{kind: evSubAbort, tx: c.id})
		return err
	}
	t.p.events = append(t.p.events, event{kind: evSubCommit, tx: c.id})
	return nil
}

// Sinks keep the compiler from discarding probed calls.
var (
	sinkTID   tree.TID
	sinkInt   int
	sinkBool  bool
	sinkState nestedtx.State
	sinkValue nestedtx.Value
)

// runProbes plans a sample of w's transactions and replays it into
// every layer. It returns the probe metrics and the planning cost in µs
// per transaction.
func runProbes(w *workload, names []string, seed int64) (map[string]float64, float64, error) {
	plan := newPlanner(w, len(names), seed)
	j := &job{names: names}
	start := time.Now()
	for i := 0; i < generatorTxs; i++ {
		plan.next(j)
	}
	generator := us(time.Since(start)) / generatorTxs

	p := &planRecorder{initial: w.initial, state: make(map[string]nestedtx.State)}
	for i := 0; i < probeTxs; i++ {
		plan.next(j)
		if j.scan {
			continue // a scan takes no locks and sends no frames
		}
		top := tree.Root.Child(i)
		p.events = append(p.events, event{kind: evBegin, tx: top})
		j.begin()
		if err := w.body(j, &plannedTx{p: p, id: top}); err != nil {
			return nil, 0, fmt.Errorf("probe plan: %w", err)
		}
		p.events = append(p.events, event{kind: evCommit, tx: top})
	}

	m := make(map[string]float64)
	probeTree(m)
	if err := probeLockmgr(m, p); err != nil {
		return nil, 0, err
	}
	if err := probeADT(m, p); err != nil {
		return nil, 0, err
	}
	if err := probeSnap(m, p); err != nil {
		return nil, 0, err
	}
	zero(m, "wire.encode_us_per_frame", "wire.decode_us_per_frame", "wire.allocs_per_frame", "wire.bytes_per_tx",
		"wal.bytes_per_commit", "wal.encode_us_per_record", "wal.append_cpu_us")
	if w.networked {
		if err := probeWire(m, p); err != nil {
			return nil, 0, err
		}
	}
	if w.durable {
		if err := probeWAL(m, p); err != nil {
			return nil, 0, err
		}
	}
	return m, generator, nil
}

// probeTree times TID construction and comparison at depth 5, the
// depth of an access in embed_nested.
func probeTree(m map[string]float64) {
	parent := tree.Root.Child(1234).Child(1).Child(0).Child(1)
	a, b := parent.Child(3), parent.Child(12)
	top := tree.Root.Child(1234)
	perIter := func(start time.Time) float64 {
		return float64(time.Since(start).Nanoseconds()) / treeProbeIter
	}
	start := time.Now()
	for i := 0; i < treeProbeIter; i++ {
		sinkTID = parent.Child(i & 15)
	}
	m["tree.child_ns"] = perIter(start)
	start = time.Now()
	for i := 0; i < treeProbeIter; i++ {
		sinkInt += tree.Compare(a, b)
	}
	m["tree.compare_ns"] = perIter(start)
	start = time.Now()
	for i := 0; i < treeProbeIter; i++ {
		sinkBool = top.IsAncestorOf(a)
	}
	m["tree.ancestor_ns"] = perIter(start)
}

// probeLockmgr replays the sample's accesses, commits and aborts into
// a fresh lock manager: nothing ever waits.
func probeLockmgr(m map[string]float64, p *planRecorder) error {
	lm := lockmgr.NewSharded(nil, core.ReadWrite, nil, 0)
	for obj := range p.state {
		if err := lm.Register(obj, p.initial); err != nil {
			return err
		}
	}
	var acquire, commit time.Duration
	acquires := 0
	for _, e := range p.events {
		switch e.kind {
		case evDo:
			start := time.Now()
			_, err := lm.Acquire(e.tx, e.access, e.obj, e.op, nil)
			acquire += time.Since(start)
			acquires++
			if err != nil {
				return fmt.Errorf("lockmgr probe: %w", err)
			}
		case evSubCommit, evCommit:
			start := time.Now()
			lm.Commit(e.tx, nil)
			commit += time.Since(start)
		case evSubAbort:
			lm.Abort(e.tx)
		}
	}
	m["lockmgr.acquire_us"] = per(us(acquire), float64(acquires))
	m["lockmgr.commit_us_per_lock"] = per(us(commit), float64(lm.Stats().CommitMoves))
	return nil
}

// probeADT times the data type and its codec on the sample's op mix.
func probeADT(m map[string]float64, p *planRecorder) error {
	var ops []nestedtx.Op
	for _, e := range p.events {
		if e.kind == evDo {
			ops = append(ops, e.op)
		}
	}
	n := float64(len(ops))
	start := time.Now()
	for _, op := range ops {
		sinkState, sinkValue = op.Apply(p.initial)
	}
	m["adt.apply_ns"] = float64(time.Since(start).Nanoseconds()) / n

	raws := make([][]byte, len(ops))
	start = time.Now()
	for i, op := range ops {
		raw, err := adt.EncodeOp(op)
		if err != nil {
			return err
		}
		raws[i] = raw
	}
	m["adt.encode_op_us"] = us(time.Since(start)) / n
	start = time.Now()
	for _, raw := range raws {
		if _, err := adt.DecodeOp(raw); err != nil {
			return err
		}
	}
	m["adt.decode_op_us"] = us(time.Since(start)) / n
	start = time.Now()
	for range ops {
		if _, err := adt.EncodeState(p.initial); err != nil {
			return err
		}
	}
	m["adt.encode_state_us"] = us(time.Since(start)) / n
	return nil
}

// probeSnap publishes each sampled transaction's write set into a fresh
// version store, then reads every accessed object back through a pin.
func probeSnap(m map[string]float64, p *planRecorder) error {
	store := snap.New(false)
	for obj := range p.state {
		store.Base(obj, p.initial)
	}
	var updates []map[string]nestedtx.State
	var reads []string
	cur := make(map[string]nestedtx.State)
	for _, e := range p.events {
		switch e.kind {
		case evDo:
			reads = append(reads, e.obj)
			if !e.op.ReadOnly() {
				cur[e.obj] = p.state[e.obj]
			}
		case evCommit:
			if len(cur) > 0 {
				updates = append(updates, cur)
				cur = make(map[string]nestedtx.State)
			}
		}
	}
	start := time.Now()
	for i, up := range updates {
		store.Publish(string(tree.Root.Child(i)), up)
	}
	m["snap.publish_us"] = per(us(time.Since(start)), float64(len(updates)))

	pin := store.Acquire()
	defer pin.Release()
	start = time.Now()
	for _, obj := range reads {
		st, err := pin.Read(obj)
		if err != nil {
			return err
		}
		sinkState = st
	}
	m["snap.read_us"] = per(us(time.Since(start)), float64(len(reads)))
	return nil
}

// probeWire encodes and decodes the frames the sample would put on the
// wire, through in-memory buffers: the codec without the kernel.
func probeWire(m map[string]float64, p *planRecorder) error {
	var reqs []*wire.Request
	var resps []*wire.Response
	handle := uint64(0)
	handles := make(map[tree.TID]uint64)
	for i, e := range p.events {
		seq := uint64(i + 1)
		req, resp := &wire.Request{Seq: seq}, &wire.Response{Seq: seq, OK: true}
		switch e.kind {
		case evBegin, evSubBegin:
			req.Type = wire.TBegin
			if e.kind == evSubBegin {
				req.Type, req.Tx = wire.TSub, handles[e.tx.Parent()]
			}
			handle++
			handles[e.tx] = handle
			resp.Tx, resp.TxID = handle, string(e.tx)
		case evDo:
			req.Type = wire.TWrite
			if e.op.ReadOnly() {
				req.Type = wire.TRead
			}
			op, err := wire.EncodeOp(e.op)
			if err != nil {
				return err
			}
			val, err := wire.EncodeValue(e.val)
			if err != nil {
				return err
			}
			req.Tx, req.Obj, req.Op, resp.Value = handles[e.tx], e.obj, op, val
		case evSubCommit, evCommit:
			req.Type, req.Tx = wire.TCommit, handles[e.tx]
		case evSubAbort:
			req.Type, req.Tx = wire.TAbort, handles[e.tx]
		}
		reqs, resps = append(reqs, req), append(resps, resp)
	}

	var reqBuf, respBuf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	bw := bufio.NewWriter(&reqBuf)
	for _, req := range reqs {
		if err := wire.WriteFrame(bw, req); err != nil {
			return err
		}
	}
	bw = bufio.NewWriter(&respBuf)
	for _, resp := range resps {
		if err := wire.WriteFrameMax(bw, resp, wire.MaxResponseSize); err != nil {
			return err
		}
	}
	encode := time.Since(start)
	size := reqBuf.Len() + respBuf.Len()

	start = time.Now()
	br := bufio.NewReader(&reqBuf)
	for range reqs {
		if _, err := wire.ReadRequest(br); err != nil {
			return err
		}
	}
	br = bufio.NewReader(&respBuf)
	for range resps {
		if _, err := wire.ReadResponse(br); err != nil {
			return err
		}
	}
	decode := time.Since(start)
	runtime.ReadMemStats(&after)

	frames := float64(len(reqs) + len(resps))
	txs := 0
	for _, e := range p.events {
		if e.kind == evCommit {
			txs++
		}
	}
	m["wire.encode_us_per_frame"] = us(encode) / frames
	m["wire.decode_us_per_frame"] = us(decode) / frames
	m["wire.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / frames
	m["wire.bytes_per_tx"] = float64(size) / float64(txs)
	return nil
}

// probeWAL encodes the sample's commit records and appends them to a
// log over an in-memory file system: the log's CPU cost with no device.
func probeWAL(m map[string]float64, p *planRecorder) error {
	var recs []wal.Record
	var effects []wal.Effect
	for _, e := range p.events {
		switch e.kind {
		case evDo:
			effects = append(effects, wal.Effect{Obj: e.obj, Op: e.op, Val: e.val})
		case evCommit:
			recs = append(recs, wal.Record{Commit: &wal.CommitRecord{
				TID: string(e.tx), Value: int64(len(effects)), Effects: effects,
			}})
			effects = nil
		}
	}
	n := float64(len(recs))
	var frame []byte
	size := 0
	start := time.Now()
	for _, rec := range recs {
		var err error
		if frame, err = wal.EncodeFrame(frame[:0], rec); err != nil {
			return err
		}
		size += len(frame)
	}
	m["wal.encode_us_per_record"] = us(time.Since(start)) / n
	m["wal.bytes_per_commit"] = float64(size) / n

	lg, _, err := wal.Open("probe", wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		return err
	}
	start = time.Now()
	for _, rec := range recs {
		if err := lg.AppendApply(rec, func() error { return nil }); err != nil {
			lg.Close()
			return err
		}
	}
	m["wal.append_cpu_us"] = us(time.Since(start)) / n
	return lg.Close()
}
