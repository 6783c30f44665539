package nestedtx

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/wal"
)

// parkFS parks every write to a checkpoint's temporary file until release
// is closed; parked is closed when the first one arrives.
type parkFS struct {
	wal.FS
	parked, release chan struct{}
	once            sync.Once
}

func newParkFS(inner wal.FS) *parkFS {
	return &parkFS{FS: inner, parked: make(chan struct{}), release: make(chan struct{})}
}

func (fs *parkFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err == nil && strings.HasPrefix(filepath.Base(name), "ckpt-") && strings.HasSuffix(name, ".tmp") {
		return parkedFile{f, fs}, nil
	}
	return f, err
}

type parkedFile struct {
	wal.File
	fs *parkFS
}

func (f parkedFile) Write(p []byte) (int, error) {
	f.fs.once.Do(func() { close(f.fs.parked) })
	<-f.fs.release
	return f.File.Write(p)
}

// openBank opens a durable manager over fs holding n accounts of 1000.
func openBank(t *testing.T, fs wal.FS, n int) *Manager {
	t.Helper()
	m, _, err := OpenDurable("d", DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m.MustRegister(fmt.Sprintf("acct%05d", i), Account{Balance: 1000})
	}
	if err := m.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	return m
}

// transfer moves one unit from account i to account j.
func transfer(m *Manager, i, j int) error {
	return m.Run(func(tx *Tx) error {
		if _, err := tx.Do(fmt.Sprintf("acct%05d", i), AcctWithdraw{Amount: 1}); err != nil {
			return err
		}
		_, err := tx.Do(fmt.Sprintf("acct%05d", j), AcctDeposit{Amount: 1})
		return err
	})
}

// recoverAndVerify reopens the directory from mem, machine-checks the
// recovered history and compares every state with the live manager's.
func recoverAndVerify(t *testing.T, live *Manager, mem wal.FS) (*Manager, *Recovery) {
	t.Helper()
	m2, rec, err := OpenDurable("d", DurableOptions{FS: mem})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered history rejected: %v", err)
	}
	for x, st := range rec.States() {
		if want, err := live.State(x); err != nil || want != st {
			t.Fatalf("recovered %s = %v, live manager has %v (%v)", x, st, want, err)
		}
	}
	return m2, rec
}

// TestCheckpointStopsNoCommit: with 65,536 accounts and the checkpoint's
// file write parked, commits keep being acknowledged — the checkpoint
// holds staging off only for its capture. A checkpoint that held the
// gate across its write acknowledged none until the write finished.
func TestCheckpointStopsNoCommit(t *testing.T) {
	const accounts = 1 << 16
	mem := wal.NewMemFS()
	fs := newParkFS(mem)
	m := openBank(t, fs, accounts)
	ckpt := make(chan error, 1)
	go func() { ckpt <- m.Checkpoint() }()
	select {
	case <-fs.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the checkpoint never reached its file write")
	}
	var acked atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := transfer(m, i%accounts, (i*7+1)%accounts); err != nil {
				done <- err
				return
			}
			acked.Add(1)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	during := acked.Load()
	close(fs.release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if during == 0 {
		t.Fatal("no commit was acknowledged while the checkpoint wrote its file")
	}
	t.Logf("%d commits acknowledged while the checkpoint's write was parked", during)
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverAndVerify(t, m, mem)
	if rec.CheckpointLSN != accounts {
		t.Fatalf("recovered from checkpoint %d, want the one at %d", rec.CheckpointLSN, accounts)
	}
}

// TestCheckpointAllocationBudget: a checkpoint of 4,096 accounts streams
// the held states into one frame buffer sized by the last checkpoint, so
// a second one allocates a few dozen times whatever the object count;
// marshalling a map of them through encoding/json cost about 12,400.
func TestCheckpointAllocationBudget(t *testing.T) {
	m := openBank(t, wal.NewMemFS(), 4096)
	defer m.CloseWAL()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := transfer(m, 1, 2); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("checkpoint of 4,096 accounts: %.0f allocations", n)
	if n > 64 {
		t.Errorf("checkpoint of 4,096 accounts: %.0f allocations, budget 64", n)
	}
}

// TestObjectRegisteredAfterCaptureRecoversOnce: an object registered,
// and written, while a checkpoint writes the states it captured is not in
// that checkpoint — its register record is above the checkpoint's LSN —
// and recovery brings it back exactly once, from its one register record.
func TestObjectRegisteredAfterCaptureRecoversOnce(t *testing.T) {
	mem := wal.NewMemFS()
	fs := newParkFS(mem)
	m := openBank(t, fs, 8)
	ckpt := make(chan error, 1)
	go func() { ckpt <- m.Checkpoint() }()
	<-fs.parked
	if err := m.Register("late", Counter{N: 5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(tx *Tx) error {
		_, err := tx.Do("late", CtrAdd{Delta: 2})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := transfer(m, 0, 1); err != nil {
		t.Fatal(err)
	}
	close(fs.release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	m2, rec := recoverAndVerify(t, m, mem)
	defer m2.CloseWAL()
	if _, ok := rec.Checkpoint["late"]; ok || rec.CheckpointLSN != 8 || len(rec.Checkpoint) != 8 {
		t.Fatalf("checkpoint at %d holds %d objects (late: %v), want the 8 accounts at 8", rec.CheckpointLSN, len(rec.Checkpoint), ok)
	}
	if got := rec.Checkpoint["acct00000"].(Account).Balance; got != 1000 {
		t.Fatalf("checkpoint holds acct00000 = %d, a commit after its capture", got)
	}
	registers := 0
	for _, r := range rec.Records {
		if r.Register != nil && r.Register.Name == "late" {
			registers++
		}
	}
	if st, err := m2.State("late"); registers != 1 || err != nil || st.(Counter).N != 7 {
		t.Fatalf("late: %d register records, recovered %v (%v), want 1 and 7", registers, st, err)
	}
	if err := m2.Register("late", Counter{}); err == nil {
		t.Fatal("recovered manager registered late a second time")
	}
}
