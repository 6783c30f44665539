package nestedtx

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"nestedtx/internal/wal"
)

// raceSlack is what the race detector adds to an allocation budget: it
// makes sync.Pool drop a quarter of what is put back, at random, so a
// pooled publication map, effect list or write buffer is now and then
// made afresh. It is set in race_on_test.go.
var raceSlack float64

// raceTxDrop is the share of the states top-level transactions put back
// to the manager's txStates that the race detector's sync.Pool drops,
// also set in race_on_test.go. A drop loses the state and the spares it
// holds, each with the rest of its chunk, so under -race a top-level
// transaction costs on average raceTxDrop more allocations per state of
// its tree's widest level and per chunk its inner levels cut from.
var raceTxDrop float64

// mallocsPerRun is testing.AllocsPerRun without the rounding down, so the
// share of a chunk that each run takes shows.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// nestedWorkload registers 32 counters and returns a transaction body
// shaped like the benchmark's embed_nested: a 15-node binary tree of
// subtransactions, a write and a read of two different counters in every
// node — 30 accesses, 15 commits.
func nestedWorkload(m *Manager) func(*Tx) error { return treeWorkload(m, false) }

// goTreeWorkload is nestedWorkload's tree with each node's two children
// started together with Go and then awaited: the fan-out of txsim's
// concurrent trees, the dst workload and the examples. No two nodes touch
// one counter, so the siblings never wait for each other.
func goTreeWorkload(m *Manager) func(*Tx) error { return treeWorkload(m, true) }

func treeWorkload(m *Manager, fanOut bool) func(*Tx) error {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
		m.MustRegister(names[i], Counter{})
	}
	var node func(tx *Tx, n int) error
	node = func(tx *Tx, n int) error {
		if _, err := tx.Do(names[2*n], CtrAdd{Delta: 1}); err != nil {
			return err
		}
		if _, err := tx.Do(names[2*n+1], CtrGet{}); err != nil {
			return err
		}
		var hs [2]*Handle
		for i, c := 0, 2*n+1; c <= 2*n+2 && c < 15; i, c = i+1, c+1 {
			if fanOut {
				hs[i] = tx.Go(func(sub *Tx) error { return node(sub, c) })
			} else if err := tx.Sub(func(sub *Tx) error { return node(sub, c) }); err != nil {
				return err
			}
		}
		for _, h := range hs {
			if h == nil {
				break
			}
			if err := h.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
	return func(tx *Tx) error { return node(tx, 0) }
}

// TestAccessPathAllocationBudget: on a non-recording manager a
// transaction allocates what it names, its Tx with its name inside, and
// nothing else: an access is never named, a cancel channel is made only
// for a wait, children are linked in place, every Tx is a slot of a
// shared chunk of txChunk, every state is one an earlier transaction
// gave back, and the publication map and the tree's cross-shard index
// entry are reused. The code allocates 0.34 and 0.02 here (fifteen and
// one 51sts of a chunk, and what a run now and then adds). Both sit
// below the 1.0 and 0.07 of a manager whose Tx held the whole state, 15
// to a chunk (1 and 0 as the per-run count that rounds down read them),
// the 8 and 1 of one that made its children two to an allocation and
// each top-level Tx apart, the 15 and 1 of one that made each child
// apart, the 30 and 2 of one that allocated each name apart from its
// Tx, the 90 and 8 of one that named every access and made a channel
// per transaction, and the 434 and 28 of one that entered every access
// in the system type. Under -race a dropped state loses the tree's four
// levels of states and the chunks of its three inner ones.
func TestAccessPathAllocationBudget(t *testing.T) {
	run := func(m *Manager, body func(*Tx) error) func() {
		return func() {
			if err := m.Run(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The lock manager reuses a tree's cross-shard index entry per stripe,
	// and a stripe's first top-level transaction makes one: about one
	// allocation per run over the first 200 runs, which is set-up, not
	// the transaction's. Reads first visit every stripe of both managers
	// without moving a counter (past 255 a write would box).
	warm := func(m *Manager, x string) {
		for range 1000 {
			run(m, func(tx *Tx) error { _, err := tx.Do(x, CtrGet{}); return err })()
		}
	}
	nested := NewManager()
	body := nestedWorkload(nested)
	warm(nested, "c01")
	n := mallocsPerRun(200, run(nested, body))
	t.Logf("15-node, 30-access transaction: %.3f allocations", n)
	if slack := raceSlack + 7*raceTxDrop; n > 0.5+slack {
		t.Errorf("15-node, 30-access transaction: %.3f allocations, budget 0.5 + %.2f", n, slack)
	}
	flat := NewManager()
	flat.MustRegister("a", Counter{})
	flat.MustRegister("b", Counter{})
	warm(flat, "a")
	body = func(tx *Tx) error {
		if _, err := tx.Do("a", CtrGet{}); err != nil {
			return err
		}
		_, err := tx.Do("b", CtrAdd{Delta: 1})
		return err
	}
	n = mallocsPerRun(200, run(flat, body))
	t.Logf("flat 2-access transaction: %.3f allocations", n)
	if slack := raceSlack + 2*raceTxDrop; n > 0.05+slack {
		t.Errorf("flat 2-access transaction: %.3f allocations, budget 0.05 + %.2f", n, slack)
	}
}

// txBytes is what a Tx is: its name, the 16-byte array and the string
// header over it, and the pointer to its state.
const txBytes = 40

// TestTxChunkFillsItsSizeClass: a Tx is txBytes, so 51 make a chunk (15
// of 136 B when a Tx held its whole state), and a chunk of txChunk lands
// in the allocator's 2,048-byte size class and leaves less than one Tx of
// it unused. A chunk one slot longer spills into the 2,304-byte class
// (its malloc header included). Within the chunk a Tx costs its own
// bytes, the name array inside them: a name longer than its 16 bytes
// costs one more allocation.
func TestTxChunkFillsItsSizeClass(t *testing.T) {
	size := int(unsafe.Sizeof(Tx{}))
	if size != txBytes || txChunk != 51 {
		t.Errorf("a Tx is %d B, %d to a chunk; want %d B, 51", size, txChunk, txBytes)
	}
	if waste := 2048 - txChunk*size; waste >= size {
		t.Errorf("a chunk of %d %d-byte Tx leaves %d B of its class unused, more than one Tx", txChunk, size, waste)
	}
	const chunks = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chunks {
		txChunkSink = make([]Tx, txChunk)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / chunks; b < 2048 || b >= 2304 {
		t.Errorf("a chunk of %d %d-byte Tx costs %d B, want the 2,048-byte class", txChunk, size, b)
	}
}

var txChunkSink []Tx

// TestDurableCommitAllocationBudget: a durable commit allocates what
// outlives it and little more. A transfer of two subtransactions on a
// durable manager costs the boxed new states and results of its two
// accesses and three 51sts of a chunk of Tx, each Tx with its name
// inside, and no state: 4.07 allocations here, 4.2 with the whole state
// in the Tx, 15 to a chunk (4 as the per-run count that rounds down read
// both), 5 with a top-level Tx and a pair of children allocated per
// transfer, 6 with each child made apart, 9 with each name allocated
// apart. The WAL ticket is answered by the durable mark, and the effect
// lists, the write buffer and the cross-shard index entry are reused;
// with each made afresh the same transfer cost 19. Under -race a dropped
// state loses itself, its chunk and its child's spare.
func TestDurableCommitAllocationBudget(t *testing.T) {
	m, _, err := OpenDurable("d", DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseWAL()
	m.MustRegister("a", Account{Balance: 1 << 40})
	m.MustRegister("b", Account{})
	transfer := func(tx *Tx) error {
		if err := tx.Sub(func(sub *Tx) error {
			_, err := sub.Do("a", AcctWithdraw{Amount: 1})
			return err
		}); err != nil {
			return err
		}
		return tx.Sub(func(sub *Tx) error {
			_, err := sub.Do("b", AcctDeposit{Amount: 1})
			return err
		})
	}
	n := mallocsPerRun(500, func() {
		if err := m.Run(transfer); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("durable two-Sub transfer: %.3f allocations", n)
	if slack := raceSlack + 3*raceTxDrop; n > 4.15+slack {
		t.Errorf("durable two-Sub transfer: %.3f allocations, budget 4.15 + %.2f", n, slack)
	}
}

// TestRepeatedReadAllocatesNothing: a read returns a function of the
// version it reads, so once a counter past 255 (the values Go boxes
// without allocating) has been read, a transaction that reads the
// unchanged version again costs its slot of a Tx chunk and no box for
// the value: the lock manager answers from the value it kept with the
// version. The manager first visits every lock-manager stripe, whose
// set-up would read 1 here (see TestAccessPathAllocationBudget).
// Applying the read afresh costs 1, and cost 2 with a Tx allocated
// apart.
func TestRepeatedReadAllocatesNothing(t *testing.T) {
	const N = 1 << 20
	m := NewManager()
	m.MustRegister("c", Counter{N: N})
	read := func(tx *Tx) error {
		v, err := tx.Do("c", CtrGet{})
		if err == nil && v != int64(N) {
			err = fmt.Errorf("read %v, want %d", v, N)
		}
		return err
	}
	run := func() {
		if err := m.Run(read); err != nil {
			t.Fatal(err)
		}
	}
	for range 1000 {
		run()
	}
	n := testing.AllocsPerRun(200, run)
	t.Logf("a repeated read of a counter at %d: %.1f allocations", N, n)
	if slack := raceSlack + 2*raceTxDrop; n > 0+slack {
		t.Errorf("a repeated read costs %.1f allocations, budget 0 + %.1f", n, slack)
	}
}

// TestReadAfterWriteTakesTheWritesValue: an add returns the counter's new
// total, which is what CtrGet reads from the state it leaves, so the lock
// manager keeps the add's value as the read's and a read after the write
// takes it without applying CtrGet. A transaction that adds to a counter
// past 255 and reads it back then costs the add's two boxes, its new
// state and its value, and no third for the read (3 when every write
// cleared what the reads had kept). The manager first visits every
// lock-manager stripe, as in TestRepeatedReadAllocatesNothing.
func TestReadAfterWriteTakesTheWritesValue(t *testing.T) {
	const N = 1 << 20
	m := NewManager()
	m.MustRegister("c", Counter{N: N})
	addThenRead := func(tx *Tx) error {
		w, err := tx.Do("c", CtrAdd{Delta: 1})
		if err != nil {
			return err
		}
		r, err := tx.Do("c", CtrGet{})
		if err == nil && (r != w || w.(int64) <= N) {
			err = fmt.Errorf("added to get %v, then read %v", w, r)
		}
		return err
	}
	run := func() {
		if err := m.Run(addThenRead); err != nil {
			t.Fatal(err)
		}
	}
	for range 1000 {
		run()
	}
	n := testing.AllocsPerRun(200, run)
	t.Logf("an add and a read of a counter past %d: %.1f allocations", N, n)
	if slack := raceSlack + 2*raceTxDrop; n > 2+slack {
		t.Errorf("an add and a read cost %.1f allocations, budget 2 + %.1f", n, slack)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySnapshotAllocatesItsTxOnly: a read-only transaction keeps its
// number, not its name, and formats "S<n>" only when asked (ID, an error,
// a trace, a recording store's log), so one that reads nothing costs its
// snap.Tx alone. The manager first runs past snapshot S100, whose names
// no longer come from strconv's table; 3 when every pin made its name.
func TestEmptySnapshotAllocatesItsTxOnly(t *testing.T) {
	m := NewManager()
	empty := func(*Snapshot) error { return nil }
	run := func() {
		if err := m.RunReadOnly(empty); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 {
		run()
	}
	n := testing.AllocsPerRun(200, run)
	t.Logf("an empty read-only transaction: %.1f allocations", n)
	if n > 1 {
		t.Errorf("an empty read-only transaction costs %.1f allocations, budget 1", n)
	}
	s := m.BeginSnapshot()
	defer s.Close()
	if id := s.ID(); id != "S401" {
		t.Errorf("the 402nd snapshot is named %q, want S401", id)
	}
}

// TestEverySubCostsOneSlot: every Tx is a slot of a shared chunk and
// every child's state its parent's spare, so each Sub costs the bytes of
// one Tx, txBytes, whatever the parent's child count. With the whole
// state in the Tx a Sub cost 136 bytes, and with children made two to an
// allocation a parent's first child cost 288 bytes and its second
// nothing, so an odd child count left half a pair unused.
func TestEverySubCostsOneSlot(t *testing.T) {
	m := NewManager()
	bytesFor := func(subs int) float64 {
		child := func(*Tx) error { return nil }
		body := func(tx *Tx) error {
			for range subs {
				if err := tx.Sub(child); err != nil {
					return err
				}
			}
			return nil
		}
		run := func() {
			if err := m.Run(body); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 2000
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	var b [4]float64
	for subs := range b {
		b[subs] = bytesFor(subs)
	}
	t.Logf("bytes per transaction with 0-3 Subs: %.1f %.1f %.1f %.1f", b[0], b[1], b[2], b[3])
	// Under -race a dropped top-level state takes its chunk with it, and
	// the chunk its replacement cuts serves the next trees' Subs: a Sub
	// then reads its own bytes give or take a dropped state's, over
	// these runs.
	want, tol := float64(txBytes), 8.0
	if raceTxDrop > 0 {
		tol = 256
	}
	for subs := range 3 {
		if d := b[subs+1] - b[subs]; d < want-tol || d > want+tol {
			t.Errorf("Sub %d costs %.1f bytes, want %.0f", subs+1, d, want)
		}
	}
}

// BenchmarkNestedTree runs nestedWorkload's 15-node tree, the shape of
// the benchmark's embed_nested, one tree per op on one goroutine: B/op is
// what a tree allocates, its fifteen Tx among it.
func BenchmarkNestedTree(b *testing.B) { benchTree(b, nestedWorkload) }

// BenchmarkGoTree runs the same tree with every node's children started
// together with Go (goTreeWorkload): siblings run beside each other, so
// a returning child often finds its parent's spare state taken.
func BenchmarkGoTree(b *testing.B) { benchTree(b, goTreeWorkload) }

func benchTree(b *testing.B, workload func(*Manager) func(*Tx) error) {
	m := NewManager()
	body := workload(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNonRecordingSoakKeepsNothingPerAccess is the flat-heap acceptance
// sized for go test: 200k accesses on a non-recording manager leave the
// system type without a single access, and the live heap after a forced
// collection does not climb between the first and the last quarter of
// the run.
func TestNonRecordingSoakKeepsNothingPerAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	m := NewManager()
	body := nestedWorkload(m)
	const accesses, perTx, samples = 200_000, 30, 16
	heap := make([]uint64, 0, samples)
	for i := 0; i < samples; i++ {
		for n := 0; n < accesses/perTx/samples; n++ {
			if err := m.Run(body); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap = append(heap, ms.HeapInuse)
	}
	if n := len(m.SystemType().Accesses()); n != 0 {
		t.Errorf("non-recording manager's system type holds %d accesses, want 0", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	median := func(s []uint64) uint64 {
		s = append([]uint64(nil), s...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	first, last := median(heap[:samples/4]), median(heap[samples-samples/4:])
	// The access map alone grew by ~150 B per access: 20 MB over this
	// run. Half a megabyte is span-rounding noise.
	if last > first+512<<10 {
		t.Errorf("heap in use after GC grew from %d B (first quarter) to %d B (last quarter): %v", first, last, heap)
	}
}

// TestRegisteredObjectFootprint pins what a registered object costs while
// nothing touches it: one record of 208 B that is both its lock state
// (the chain's first slot inline, and the read memo; no read set until
// someone reads it) and the store's record of it (name, owner, chain, and
// the first version inline, which is also the root's version), an 8-byte
// entry in the store's registration order (chunks of 127), and one 16-byte
// slot in the one name index, at a load between three eighths and three
// quarters. A non-recording manager keeps no system type, so nothing is
// spent on what only Verify reads. The records are cut from chunks of 39,
// which fill the 8,192-byte size class, so the code allocates 225 B and
// 0.04 mallocs per object here (budget: that plus 10 B; 0.03 with
// registration-order chunks of 1,023), against 264 B with a second
// copy of the root's version in the lock state's chain, 290 B
// and 0.04 with a lock state and a store record apart, each filed in its
// own index, 338 B and 0.06 with two Go maps and a registration-order
// name slice, 336 B and 2.02 with one lock state and one chain allocated
// per object, 352 B and 3.02 with an empty read set made at
// registration, and 400 B and 4.03 with a separate chain array and a
// system-type entry. The first row is a small manager with 64 counters:
// 18 mallocs and 26,952 B (budget 24 and 28,000 B), against 88 and
// 37,456 B with the lock manager's per-tree maps and a system type made
// up front and an 8 KB registration-order chunk, 97 mallocs with two
// indexes, 119 with Go maps and 244 with per-object allocations. No
// transaction exists yet, so nothing is spent on one: the per-tree maps
// are made by the first transaction that needs them. Both rows pin two
// lock shards, so the small row's per-shard allocations do not follow the
// core count.
// The small row runs first so that names stays dead by the per-object row's
// second GC, which frees its 16 B per object from that row's count.
func TestRegisteredObjectFootprint(t *testing.T) {
	const objects = 10_000
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("c%05d", i)
	}
	const runs = 20
	smallManager := func() {
		m := NewManager(withLockShards(2))
		for _, x := range names[:64] {
			m.MustRegister(x, Counter{})
		}
	}
	var start, end runtime.MemStats
	runtime.ReadMemStats(&start)
	small := testing.AllocsPerRun(runs, smallManager)
	runtime.ReadMemStats(&end)
	// AllocsPerRun makes one warm-up run beside the ones it counts.
	smallBytes := (end.TotalAlloc - start.TotalAlloc) / (runs + 1)
	t.Logf("%.0f mallocs and %d B for a manager with 64 counters", small, smallBytes)
	if small > 24 || smallBytes > 28_000 {
		t.Errorf("a manager with 64 counters costs %.0f mallocs and %d B, budget 24 and 28,000 B", small, smallBytes)
	}

	m := NewManager(withLockShards(2))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, x := range names {
		m.MustRegister(x, Counter{N: 5})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / objects
	mallocs := float64(after.Mallocs-before.Mallocs) / objects
	t.Logf("%.0f B of heap and %.2f mallocs per registered object", bytes, mallocs)
	if bytes > 235 || mallocs > 0.2 {
		t.Errorf("a registered object costs %.0f B and %.2f mallocs, budget 235 B and 0.2", bytes, mallocs)
	}
	runtime.KeepAlive(m)
}

// TestTopLevelIDsDistinctAndGapFree: Run and RunCtx mint top-level names
// from one counter, so concurrent callers see every name from T0.0 up
// exactly once.
func TestTopLevelIDsDistinctAndGapFree(t *testing.T) {
	m := NewManager()
	const workers, each = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool)
	note := func(tx *Tx) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[tx.ID()] {
			t.Errorf("top-level name %s minted twice", tx.ID())
		}
		seen[tx.ID()] = true
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var err error
				if (w+i)%2 == 0 {
					err = m.Run(note)
				} else {
					err = m.RunCtx(context.Background(), note)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < workers*each; i++ {
		if id := fmt.Sprintf("T0.%d", i); !seen[id] {
			t.Fatalf("top-level name %s never minted (%d names seen)", id, len(seen))
		}
	}
}
