package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/obs"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// numClients is the number of closed-loop clients of every workload:
// two goroutines embedded, two connections networked. The wire protocol
// is strict request/response per session, so callers that wait for a
// reply are the honest model on a two-core box.
const numClients = 2

// runOpts selects one run.
type runOpts struct {
	seed   int64
	window time.Duration // measured window; warm-up is a tenth of it
	trace  bool          // record spans and report per-layer metrics
	scale  int           // object counts are divided by this; 1 except in the smoke test
	outDir string        // span files go here
}

// system is one instance of the system under test.
type system struct {
	mgr     *nestedtx.Manager
	srv     *server.Server
	served  chan error
	clients []*client.Client
	fs      wal.FS // the device of a durable manager
}

// The durable workload's device is a model: an in-memory file system
// whose every fsync takes syncDelay longer. The sandbox's real disk was
// tried first (README.md has the numbers): its fdatasync wandered
// between 0.4 and 1.0 ms from run to run and took every time-based
// metric of the workload past any bound. time.Sleep cannot sleep less
// than about 1.1 ms in this VM, so that is the device's latency; it
// repeats within a few percent.
const (
	syncDelay = time.Millisecond
	walDir    = "wal"
)

// setUp opens the manager, registers the objects and, for a networked
// workload, starts the server and dials the clients: everything setup_s
// times.
func setUp(w *workload, names []string) (*system, error) {
	s := &system{}
	if w.durable {
		// Default flush policy: SyncWindow 0, one write and one fsync
		// per batch. Registration pays the device too: one fsync per
		// object, which is most of this workload's set-up time.
		device := wal.NewFaultFS(wal.NewMemFS())
		device.SetSyncDelay(syncDelay)
		s.fs = device
		m, _, err := nestedtx.OpenDurable(walDir, nestedtx.DurableOptions{FS: s.fs})
		if err != nil {
			return nil, err
		}
		s.mgr = m
	} else {
		s.mgr = nestedtx.NewManager()
	}
	for _, name := range names {
		if err := s.mgr.Register(name, w.initial); err != nil {
			return nil, err
		}
	}
	if !w.networked {
		return s, nil
	}
	s.srv = server.New(s.mgr, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < numClients; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	// The kernel completes a dial before Serve has accepted anything, or
	// even run: a set-up is done when every session answers. Without the
	// round trip a tear-down straight after set-up can reach Shutdown
	// before Serve has the listener, and Serve then reports "already shut
	// down".
	for _, c := range s.clients {
		if err := c.Ping(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// backends returns one backend per client.
func (s *system) backends() []backend {
	bs := make([]backend, numClients)
	for i := range bs {
		if s.srv != nil {
			bs[i] = remote{s.clients[i]}
		} else {
			bs[i] = embedded{s.mgr}
		}
	}
	return bs
}

// tearDown stops the server and its sessions and closes the log.
func (s *system) tearDown() error {
	var errs []error
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx), <-s.served)
		cancel()
	}
	if s.mgr != nil {
		errs = append(errs, s.mgr.CloseWAL())
	}
	return errors.Join(errs...)
}

// sample is one top-level transaction as its client saw it. It is kept
// small: the sample buffers are live heap beside the system under test.
type sample struct {
	lat    int64  // first attempt start → acknowledged, retries included, ns
	endUS  uint32 // acknowledged at, µs since the phase began
	scan   bool
	traced bool
	failed bool
}

// worker is one closed-loop client: it plans a transaction, runs it to
// completion and only then plans the next.
type worker struct {
	w      *workload
	be     backend
	plan   *planner
	job    job
	rec    *recorder // nil when the run is untraced
	stride int       // trace every stride'th transaction
	base   time.Time // start of the current phase

	// tally[i] is the net change committed transactions of this worker
	// made to object i, over every phase: the output checks compare the
	// final states against it.
	tally []int64
	acked int // committed locking transactions, over every phase

	// Counts of the current phase.
	samples    []sample
	attempts   int
	commits    int // committed locking transactions
	withWrites int // … of which at least one write survived
	failed     int
	firstErr   error // first failed transaction
	fatal      error // a failure that makes continuing pointless
}

func newWorker(w *workload, be backend, names []string, seed int64) *worker {
	return &worker{
		w: w, be: be, plan: newPlanner(w, len(names), seed),
		job: job{names: names}, tally: make([]int64, len(names)), stride: 1,
	}
}

func (wk *worker) now() int64 { return int64(time.Since(wk.base)) }

// reserve makes room for the samples of a phase of length d, at up to
// 50k transactions per second: allocated before the window's first
// counter reading, so that the buffer never grows inside the window.
func (wk *worker) reserve(d time.Duration) {
	wk.samples = make([]sample, 0, int(d.Seconds()*50_000)+1024)
}

// reset starts a phase: counts from zero.
func (wk *worker) reset(base time.Time) {
	wk.base = base
	if wk.rec != nil {
		wk.rec.base = base
	}
	wk.samples = wk.samples[:0]
	wk.attempts, wk.commits, wk.withWrites, wk.failed = 0, 0, 0, 0
}

// runOne plans and executes one top-level transaction.
func (wk *worker) runOne() {
	j := &wk.job
	wk.plan.next(j)
	rec := wk.rec
	if rec != nil && (wk.plan.n%wk.stride != 0 || !rec.room(j.spans())) {
		rec = nil
	}
	// end is read once, where the transaction is acknowledged, and closes
	// the tx span and its last child alike: the children tile the tx.
	var end int64
	var err error
	t0 := wk.now()
	if j.scan {
		end, err = wk.runScan(rec, t0)
	} else {
		end, err = wk.runLocking(rec, t0)
	}
	if rec != nil {
		rec.close(rec.txSpan, end)
	}
	if err != nil {
		wk.failed++
		if wk.firstErr == nil {
			wk.firstErr = err
		}
		if !errors.Is(err, nestedtx.ErrDeadlock) {
			wk.fatal = err
		}
	} else if !j.scan {
		wk.commits++
		wk.acked++
		if len(j.writes) > 0 {
			wk.withWrites++
		}
		for _, wr := range j.writes {
			wk.tally[wr.obj] += wr.delta
		}
	}
	wk.samples = append(wk.samples, sample{
		lat: end - t0, endUS: uint32(end / 1e3), scan: j.scan, traced: rec != nil, failed: err != nil,
	})
}

func (wk *worker) runScan(rec *recorder, t0 int64) (int64, error) {
	j := &wk.job
	if rec == nil {
		err := wk.be.RunReadOnly(func(r reader) error { return scanBody(j, r) })
		return wk.now(), err
	}
	rec.beginTx(t0)
	sc := rec.open(spScan, rec.txSpan, t0)
	err := wk.be.RunReadOnly(func(r reader) error {
		return scanBody(j, &tracedReader{inner: r, rec: rec, parent: sc})
	})
	end := wk.now()
	rec.close(sc, end)
	return end, err
}

func (wk *worker) runLocking(rec *recorder, t0 int64) (int64, error) {
	j := &wk.job
	if rec == nil {
		err := wk.be.RunRetry(wk.w.attempts, func(t txn) error {
			wk.attempts++
			j.begin()
			return wk.w.body(j, t)
		})
		return wk.now(), err
	}
	rec.beginTx(t0)
	first, lastRet := true, t0
	err := wk.be.RunRetry(wk.w.attempts, func(t txn) error {
		wk.attempts++
		j.begin()
		entry := rec.now()
		if first {
			rec.add(spBegin, rec.txSpan, t0, entry)
			first = false
		} else {
			rec.add(spBackoff, rec.txSpan, lastRet, entry)
		}
		at := rec.open(spAttempt, rec.txSpan, entry)
		err := wk.w.body(j, &tracedTx{inner: t, rec: rec, parent: at})
		lastRet = rec.now()
		rec.close(at, lastRet)
		return err
	})
	end := wk.now()
	// A transaction that gave up ends in an abort, not a commit; its
	// tail is filed with the other abort-and-wait intervals.
	name := spCommit
	if err != nil {
		name = spBackoff
	}
	rec.add(name, rec.txSpan, lastRet, end)
	return end, err
}

// tick is one reading the controller takes at a slice boundary while
// the workers run.
type tick struct {
	at  time.Duration // since the phase began
	cpu time.Duration // process user+sys so far
}

// runPhase runs the workers for d and returns the slice boundaries it
// read on the way; the last one is the end of the phase as it really
// ran. Each worker finishes the transaction it is in, so every count
// taken afterwards is taken at rest. during, if not nil, runs beside the
// workers (the checkpoints of the durable workload).
func runPhase(workers []*worker, d time.Duration, during func(start time.Time)) []tick {
	var stop atomic.Bool
	var wg, side sync.WaitGroup
	start := time.Now()
	for _, wk := range workers {
		wk.reset(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && wk.fatal == nil {
				wk.runOne()
			}
		}()
	}
	if during != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			during(start)
		}()
	}
	// One-second slices, but never fewer than six: the medians over
	// slices are what make a run robust to a disturbance of a few seconds.
	slices := max(int(d/time.Second), 6)
	ticks := []tick{{0, cpuTime()}}
	for i := 1; i < slices; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(slices))))
		ticks = append(ticks, tick{time.Since(start), cpuTime()})
	}
	time.Sleep(time.Until(start.Add(d)))
	stop.Store(true)
	wg.Wait()
	ticks = append(ticks, tick{time.Since(start), cpuTime()})
	side.Wait()
	return ticks
}

// counters is every cumulative count the harness reads at the two ends
// of the window, through public calls only.
type counters struct {
	mem   runtime.MemStats // after a forced GC: HeapAlloc is the live heap
	cpu   time.Duration    // process user+sys
	lock  nestedtx.Stats
	obs   obs.Snapshot
	srv   server.Counters
	calls uint64 // client round trips
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCounters reads the counters at rest. The forced collection's own
// CPU time is kept out of the window: at the start it runs before the
// CPU reading, at the end after it.
func (s *system) readCounters(windowStart bool) counters {
	var c counters
	if windowStart {
		runtime.GC()
	}
	c.cpu = cpuTime()
	if !windowStart {
		runtime.GC()
	}
	runtime.ReadMemStats(&c.mem)
	c.lock = s.mgr.Stats()
	c.obs = s.mgr.Metrics().Snapshot()
	if s.srv != nil {
		c.srv = s.srv.Counters()
	}
	for _, cl := range s.clients {
		c.calls += cl.CallStats().Calls
	}
	return c
}

// runData is everything one run measured; metrics.go turns it into the
// named metrics and checks.go into the verdict.
type runData struct {
	w       *workload
	opts    runOpts
	names   []string
	sys     *system
	workers []*worker // the clients, then the probe worker if any
	clients []*worker

	setups       []time.Duration
	ticks        []tick // slice boundaries of the measured window
	before       counters
	after        counters
	checkpoints  []time.Duration
	checkpointEr error

	// Traced runs only.
	trace     *traceStats // spans of the clients
	embedded  *traceStats // spans at the nestedtx boundary (the probe worker on networked workloads)
	probes    map[string]float64
	generator float64 // planning cost, µs per transaction

	// Durable runs only.
	recovery recoveryData

	totals   windowTotals
	failures []string // output checks that failed; empty on a correct run
}

type recoveryData struct {
	took    time.Duration
	records int
	nextLSN uint64
	lsn0    uint64 // NextLSN once set-up was done
	states  map[string]nestedtx.State
}

// An untraced run sets up at least minSetups times, and goes on until
// 3/40 of the window (1.5 s of 20 s) has passed or maxSetups are done.
const (
	minSetups = 3
	maxSetups = 5000
)

// traceCapacity bounds one worker's span buffer (and so the trace
// file); the stride is chosen so that it lasts the whole window.
const traceCapacity = 150_000

// execute performs one run of w: set-up, warm-up, the measured window,
// the layer probes (traced runs), the reopen (durable), the output
// checks and tear-down.
func execute(w *workload, opts runOpts) (*runData, error) {
	objects := max(w.objects/opts.scale, 8)
	r := &runData{w: w, opts: opts, names: make([]string, objects)}
	for i := range r.names {
		r.names[i] = w.objName(i)
	}

	// Set-up, several times: one reading of a step this short says
	// little, and the median is what BENCHMARK.json bounds. A traced run
	// reports no set-up time and sets up once.
	minimum, budget := minSetups, opts.window*3/40
	if opts.trace {
		minimum, budget = 1, 0
	}
	began := time.Now()
	for i := 0; i < minimum || (i < maxSetups && time.Since(began) < budget); i++ {
		if r.sys != nil {
			err := r.sys.tearDown()
			r.sys = nil
			if err != nil {
				return nil, fmt.Errorf("tear-down between set-ups: %w", err)
			}
		}
		// No collection is forced between set-ups: the first allocations
		// after one are slow and erratic, which tripled the spread of a
		// 100 µs set-up.
		start := time.Now()
		sys, err := setUp(w, r.names)
		r.setups = append(r.setups, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.sys = sys
	}
	// The checks below read the live manager, so it is torn down last.
	defer func() { r.sys.tearDown() }()
	if ws, ok := r.sys.mgr.WalStats(); ok {
		r.recovery.lsn0 = ws.NextLSN
	}

	for i, be := range r.sys.backends() {
		r.clients = append(r.clients, newWorker(w, be, r.names, opts.seed*1000+int64(i)))
	}
	r.workers = append(r.workers, r.clients...)

	// Warm-up: lazy set-up finishes, caches fill, and its rate sizes
	// the trace stride.
	warm := opts.window / 10
	for _, wk := range r.clients {
		wk.reserve(warm)
	}
	runPhase(r.clients, warm, nil)
	if opts.trace {
		for _, wk := range r.clients {
			perTx := max(wk.job.spans(), 1)
			expect := float64(len(wk.samples)) / warm.Seconds() * opts.window.Seconds() * float64(perTx)
			// At least every other transaction stays untraced: the two
			// halves give the tracing overhead.
			wk.stride = max(2, int(expect/traceCapacity)+1)
			wk.rec = newRecorder(traceCapacity)
		}
	}

	var during func(time.Time)
	if w.durable {
		// Two checkpoints inside the window, so that their stalls are
		// part of what the latencies show.
		during = func(start time.Time) {
			for i := 1; i <= 2; i++ {
				time.Sleep(time.Until(start.Add(opts.window * time.Duration(i) / 3)))
				t := time.Now()
				if err := r.sys.mgr.Checkpoint(); err != nil {
					r.checkpointEr = err
					return
				}
				r.checkpoints = append(r.checkpoints, time.Since(t))
			}
		}
	}
	for _, wk := range r.clients {
		wk.reserve(opts.window)
	}
	r.before = r.sys.readCounters(true)
	r.ticks = runPhase(r.clients, opts.window, during)
	r.after = r.sys.readCounters(false)

	if opts.trace {
		if err := r.tracedExtras(); err != nil {
			return nil, err
		}
	}
	if w.durable {
		if err := r.reopen(); err != nil {
			return nil, err
		}
	}
	r.totals = r.sumWindow()
	r.failures = r.check(r.totals)
	return r, nil
}

// tracedExtras does what only a traced run does after its window: write
// the span file, observe the nestedtx boundary on networked workloads,
// and run the layer probes.
func (r *runData) tracedExtras() error {
	var recs []*recorder
	for _, wk := range r.clients {
		recs = append(recs, wk.rec)
	}
	if err := writeTrace(filepath.Join(r.opts.outDir, "trace."+r.w.name+".jsonl"), recs); err != nil {
		return err
	}
	r.trace = analyse(recs)
	r.embedded = r.trace
	if r.w.networked {
		// The server, not the harness, calls nestedtx here. To see that
		// boundary, one more client runs the same transactions straight
		// into the same manager, every one of them traced.
		d := min(max(r.opts.window/10, 50*time.Millisecond), time.Second)
		wk := newWorker(r.w, embedded{r.sys.mgr}, r.names, r.opts.seed*1000+500)
		wk.rec = newRecorder(traceCapacity)
		wk.reserve(d)
		r.workers = append(r.workers, wk)
		runPhase([]*worker{wk}, d, nil)
		r.embedded = analyse([]*recorder{wk.rec})
	}
	var err error
	r.probes, r.generator, err = runProbes(r.w, r.names, r.opts.seed*1000+900)
	return err
}

// reopen abandons the durable manager as a killed process would leave
// it — no SyncWAL, no CloseWAL — and recovers the directory into a
// second manager, whose states the checks compare with what the clients
// were told had committed.
func (r *runData) reopen() error {
	start := time.Now()
	m, rec, err := nestedtx.OpenDurable(walDir, nestedtx.DurableOptions{FS: r.sys.fs})
	if err != nil {
		return fmt.Errorf("reopen the log: %w", err)
	}
	r.recovery.took = time.Since(start)
	r.recovery.records = len(rec.Records)
	r.recovery.nextLSN = rec.NextLSN
	r.recovery.states = make(map[string]nestedtx.State, len(r.names))
	for _, name := range r.names {
		st, err := m.State(name)
		if err != nil {
			m.CloseWAL()
			return fmt.Errorf("recovered manager: %w", err)
		}
		r.recovery.states[name] = st
	}
	return m.CloseWAL()
}
