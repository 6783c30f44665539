package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nestedtx/internal/clock"
)

// File is the slice of *os.File the log needs. The indirection exists so
// crash tests can substitute files that die at a chosen byte: the disk
// keeps the byte prefix written before it, the process sees every later
// operation fail, and the recovery property suite proves the recovered
// prefix still satisfies Theorem 34.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync). A Ticket only
	// acknowledges a record after Sync has covered it.
	Sync() error
	// Truncate cuts the file to size bytes — used by recovery to remove a
	// torn tail so it is never scanned again.
	Truncate(size int64) error
}

// FS is the directory-level file system the log runs on. The production
// implementation is [OSFS]; [MemFS] backs fast deterministic tests and
// [FaultFS] wraps either with crash injection.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the given flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
	Rename(oldname, newname string) error
	MkdirAll(dir string) error
	// SyncDir fsyncs a directory so renames and creations within it are
	// durable. Implementations without directory sync return nil.
	SyncDir(dir string) error
	// Size returns the byte size of name.
	Size(name string) (int64, error)
}

// ---- OS implementation ----

// OSFS is the real file system.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile narrows a log file's Sync to fdatasync where the platform has
// it: a WAL append only needs the data and the metadata required to
// retrieve it (the file size) on stable storage, which fdatasync
// guarantees — what it skips is the journal commit for timestamp-only
// metadata that fsync pays on every flush.
type osFile struct{ *os.File }

func (f osFile) Sync() error { return fdatasync(f.File) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (OSFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ---- in-memory implementation ----

// MemFS is an in-memory file system with real-file semantics (append,
// truncate, rename, remove). It models kill -9 exactly: a killed process
// loses nothing already written (the page cache survives a process
// death), so combined with [FaultFS] it gives deterministic, seedable
// crash points without disk I/O: the disk keeps a byte prefix, and the
// process sees every later operation fail.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

// memPage is the size of the pages a MemFS file is kept in. A file grows
// by whole pages and never copies what it holds, so n bytes written cost
// n rounded up to a page, however many writes brought them. At 64 KiB a
// durable commit's few hundred bytes of log cost well under a hundredth
// of an allocation; 4 KiB pages cost a durable bank transfer 0.1 more.
const memPage = 64 << 10

// memData is one file's contents: its first size bytes, across pages
// that are all full but the last.
type memData struct {
	pages []*[memPage]byte
	size  int64
}

func (d *memData) write(p []byte) {
	for len(p) > 0 {
		if d.size == int64(len(d.pages))*memPage {
			d.pages = append(d.pages, new([memPage]byte))
		}
		n := copy(d.pages[d.size/memPage][d.size%memPage:], p)
		p = p[n:]
		d.size += int64(n)
	}
}

// readAt copies the bytes at off into p and returns how many it copied.
func (d *memData) readAt(p []byte, off int64) int {
	n := 0
	for n < len(p) && off < d.size {
		page := d.pages[off/memPage][off%memPage:]
		page = page[:min(int64(len(page)), d.size-off)]
		c := copy(p[n:], page)
		n += c
		off += int64(c)
	}
	return n
}

// truncate cuts the file to size bytes, dropping the pages past them; a
// size at or past the end changes nothing. The kept bytes of the last
// page past size are overwritten by the next write before any read can
// reach them.
func (d *memData) truncate(size int64) {
	if size >= d.size {
		return
	}
	keep := (size + memPage - 1) / memPage
	clear(d.pages[keep:])
	d.pages = d.pages[:keep]
	d.size = size
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memData)} }

type memFile struct {
	fs   *MemFS
	name string
	pos  int64 // read position
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		m.files[name] = new(memData)
	} else if flag&os.O_TRUNC != 0 {
		m.files[name] = new(memData)
	}
	return &memFile{fs: m, name: name}, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, ok := f.fs.files[f.name]
	if !ok {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrNotExist}
	}
	d.write(p)
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, ok := f.fs.files[f.name]
	if !ok {
		return 0, &os.PathError{Op: "read", Path: f.name, Err: os.ErrNotExist}
	}
	if f.pos >= d.size {
		return 0, io.EOF
	}
	n := d.readAt(p, f.pos)
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d, ok := f.fs.files[f.name]
	if !ok {
		return &os.PathError{Op: "truncate", Path: f.name, Err: os.ErrNotExist}
	}
	d.truncate(size)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		} else if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	m.files[newname] = d
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) MkdirAll(dir string) error { return nil }
func (m *MemFS) SyncDir(dir string) error  { return nil }

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return d.size, nil
}

// Corrupt flips one byte of name at offset, for bad-CRC recovery tests.
func (m *MemFS) Corrupt(name string, offset int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return &os.PathError{Op: "corrupt", Path: name, Err: os.ErrNotExist}
	}
	if offset < 0 || offset >= d.size {
		return fmt.Errorf("wal: corrupt %s: offset %d out of range %d", name, offset, d.size)
	}
	d.pages[offset/memPage][offset%memPage] ^= 0xff
	return nil
}

// ---- fault injection ----

// FaultFS wraps an FS with a crash point: the device accepts a budget of
// bytes, the write that crosses it lands its prefix, and from then on
// every write, sync, open, rename, remove, truncate and directory sync
// returns ErrInjected. The inner FS keeps exactly the byte prefix a
// process killed mid-stream leaves behind, and the process itself is
// told of every failure, so nothing past the crash byte is acknowledged:
// a commit whose stage fails aborts, and one whose fsync fails reports
// ErrNotDurable instead of success.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	budget    int64         // remaining writable bytes; < 0 means unlimited
	syncHook  func()        // runs at the start of every file Sync
	syncDelay time.Duration // added to every file Sync, after the underlying sync
	clk       clock.Clock   // time source for syncDelay; nil = wall clock
}

// ErrInjected is returned by every FaultFS operation past the crash
// point.
var ErrInjected = fmt.Errorf("wal: injected fault")

// NewFaultFS wraps inner with an unlimited budget (no fault until
// CrashAfter is called).
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{inner: inner, budget: -1} }

// CrashAfter arms the crash point: the device accepts n more bytes, then
// fails every later operation. A negative n heals the device.
func (fs *FaultFS) CrashAfter(n int64) {
	fs.mu.Lock()
	fs.budget = n
	fs.mu.Unlock()
}

// SetSyncHook installs fn to run at the start of every file Sync (fsync)
// issued through this FS, before the underlying sync. A blocking fn models
// a stalled disk; the concurrency tests use it to hold an fsync in flight
// while asserting appenders still make progress. nil removes the hook.
// The hook does not run for directory syncs.
func (fs *FaultFS) SetSyncHook(fn func()) {
	fs.mu.Lock()
	fs.syncHook = fn
	fs.mu.Unlock()
}

// SetSyncDelay makes every file Sync take d longer — a slow disk, for
// fsync-latency sweeps. The delay lands after the underlying sync
// completes: the modeled device wrote durably but is slow to
// acknowledge, so the injected latency composes with (rather than
// perturbs) the real cost of the sync itself. d <= 0 removes the delay.
func (fs *FaultFS) SetSyncDelay(d time.Duration) {
	fs.mu.Lock()
	fs.syncDelay = d
	fs.mu.Unlock()
}

// SetClock injects the time source the injected sync delay sleeps on
// (nil = wall clock). The simulator sets its virtual clock so a modeled
// slow disk costs event-queue time, not wall time.
func (fs *FaultFS) SetClock(c clock.Clock) {
	fs.mu.Lock()
	fs.clk = c
	fs.mu.Unlock()
}

// consume takes up to n bytes of budget, returning how many may really
// be written.
func (fs *FaultFS) consume(n int64) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.budget < 0 {
		return n
	}
	allowed := min(fs.budget, n)
	fs.budget -= allowed
	return allowed
}

// alive reports whether the crash point is still ahead.
func (fs *FaultFS) alive() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.budget != 0
}

type faultFile struct {
	fs *FaultFS
	f  File
}

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if !fs.alive() {
		return nil, ErrInjected
	}
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

func (f *faultFile) Write(p []byte) (int, error) {
	allowed := f.fs.consume(int64(len(p)))
	if allowed > 0 {
		if _, err := f.f.Write(p[:allowed]); err != nil {
			return 0, err
		}
	}
	if allowed < int64(len(p)) {
		return int(allowed), ErrInjected
	}
	return len(p), nil
}

func (f *faultFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	hook := f.fs.syncHook
	delay := f.fs.syncDelay
	clk := f.fs.clk
	f.fs.mu.Unlock()
	if hook != nil {
		hook()
	}
	if !f.fs.alive() {
		return ErrInjected
	}
	err := f.f.Sync()
	if delay > 0 {
		clock.Or(clk).Sleep(delay)
	}
	return err
}

func (f *faultFile) Close() error { return f.f.Close() }

func (f *faultFile) Truncate(size int64) error {
	if !f.fs.alive() {
		return ErrInjected
	}
	return f.f.Truncate(size)
}

func (fs *FaultFS) ReadDir(dir string) ([]string, error) { return fs.inner.ReadDir(dir) }

func (fs *FaultFS) Remove(name string) error {
	if !fs.alive() {
		return ErrInjected
	}
	return fs.inner.Remove(name)
}

func (fs *FaultFS) Rename(oldname, newname string) error {
	if !fs.alive() {
		return ErrInjected
	}
	return fs.inner.Rename(oldname, newname)
}

func (fs *FaultFS) MkdirAll(dir string) error { return fs.inner.MkdirAll(dir) }

func (fs *FaultFS) SyncDir(dir string) error {
	if !fs.alive() {
		return ErrInjected
	}
	return fs.inner.SyncDir(dir)
}

func (fs *FaultFS) Size(name string) (int64, error) { return fs.inner.Size(name) }
