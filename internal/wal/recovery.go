package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// Recovery is the result of scanning a log directory: the newest valid
// checkpoint, every intact record past it, and the object states their
// redo produces. Schedule renders the recovered history as the formal
// schedule checker.Certify certifies against States.
type Recovery struct {
	// CheckpointLSN is the redo low-water mark: the first LSN redone.
	// Zero means no checkpoint was found and redo starts from empty.
	CheckpointLSN uint64
	// Checkpoint holds the base states from the newest valid checkpoint
	// (nil when CheckpointLSN is zero).
	Checkpoint map[string]adt.State
	// Records are the intact records with LSN >= CheckpointLSN, in LSN
	// order: a contiguous, durable prefix of the pre-crash history.
	Records []Record
	// NextLSN is the LSN the next append will receive.
	NextLSN uint64
	// TornBytes counts bytes cut from the first corrupt frame onward in
	// the segment where scanning stopped.
	TornBytes int64
	// Dropped lists files set aside (renamed *.corrupt) or ignored
	// because they follow a corrupt frame or failed to parse.
	Dropped []string

	tailSegment string
	states      map[string]adt.State
	segments    []SegmentInfo
}

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	Name     string
	Size     int64
	FirstLSN uint64 // valid when Records > 0
	LastLSN  uint64 // valid when Records > 0
	Records  int
	Torn     bool // scanning stopped inside this segment
}

// States returns the recovered object states: checkpoint base plus the
// redo of every recovered record. The caller takes ownership.
func (r *Recovery) States() map[string]adt.State { return r.states }

// Segments returns per-segment scan details, in scan order.
func (r *Recovery) Segments() []SegmentInfo { return r.segments }

// Inspect scans dir read-only: like the recovery pass of Open, but it
// neither truncates torn tails nor renames corrupt files, so it is safe
// to point at a live or post-mortem log directory (cmd/txwal uses it).
func Inspect(dir string, fs FS) (*Recovery, error) {
	if fs == nil {
		fs = OSFS{}
	}
	return scanDir(fs, dir, false)
}

// parseLSN extracts the LSN from a file name of form prefix-%016d.suffix.
func parseLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// dirEntry is a log file and the LSN its name carries.
type dirEntry struct {
	name string
	lsn  uint64
}

// corruptSuffix marks a file recovery has set aside (see discard).
const corruptSuffix = ".corrupt"

// listDir reads a log directory: its segments in ascending LSN order, its
// checkpoints newest first, and the names that are neither.
func listDir(fs FS, dir string) (segs, ckpts []dirEntry, rest []string, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	for _, n := range names {
		if lsn, ok := parseLSN(n, "wal-", ".seg"); ok {
			segs = append(segs, dirEntry{n, lsn})
		} else if lsn, ok := parseLSN(n, "ckpt-", ".ckpt"); ok {
			ckpts = append(ckpts, dirEntry{n, lsn})
		} else {
			rest = append(rest, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].lsn < segs[j].lsn })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].lsn > ckpts[j].lsn })
	return segs, ckpts, rest, nil
}

// scanDir performs the recovery scan. With mutate set (the Open path) it
// physically truncates the torn tail and renames undecodable files to
// *.corrupt so they are never scanned again; without it (Inspect) the
// directory is left untouched.
func scanDir(fs FS, dir string, mutate bool) (*Recovery, error) {
	segs, ckpts, rest, err := listDir(fs, dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{states: make(map[string]adt.State)}
	for _, n := range rest {
		if mutate && strings.HasSuffix(n, ".tmp") {
			// A checkpoint that never reached its rename.
			fs.Remove(filepath.Join(dir, n))
		}
	}

	// Newest valid checkpoint wins; invalid ones are set aside.
	for _, ck := range ckpts {
		_, payload, err := readCheckpointFile(fs, dir, ck)
		if err != nil {
			return nil, fmt.Errorf("wal: read checkpoint %s: %w", ck.name, err)
		}
		_, states, err := unmarshalCheckpoint(payload)
		if err != nil {
			rec.discard(fs, dir, ck.name, mutate)
			continue
		}
		rec.CheckpointLSN = ck.lsn
		rec.Checkpoint = states
		break
	}
	for x, st := range rec.Checkpoint {
		rec.states[x] = st
	}
	rec.NextLSN = rec.CheckpointLSN

	// Scan segments in LSN order; the first corrupt frame at or above the
	// checkpoint ends the durable prefix — it is truncated (mutate) and
	// every later segment is set aside, never replayed. Records below the
	// checkpoint are not needed: a segment wholly below it (one a
	// checkpoint did not get to remove) is not read, and a corrupt frame
	// below it in the segment that holds it is skipped over.
	corrupted := false
	for i, seg := range segs {
		name := seg.name
		if corrupted {
			rec.discard(fs, dir, name, mutate)
			continue
		}
		if i+1 < len(segs) && segs[i+1].lsn <= rec.CheckpointLSN {
			continue
		}
		path := filepath.Join(dir, name)
		buf, err := readWhole(fs, path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		info := SegmentInfo{Name: name, Size: int64(len(buf))}
		offset := 0
		for {
			r, frameLen, ferr := scanRecord(buf[offset:])
			if ferr == nil && frameLen == 0 {
				break // clean end of segment
			}
			if ferr == nil && r.LSN > rec.NextLSN {
				ferr = fmt.Errorf("wal: LSN gap: got %d, want %d", r.LSN, rec.NextLSN)
			}
			if ferr != nil && rec.CheckpointLSN > 0 && rec.NextLSN == rec.CheckpointLSN {
				if at := seekRecord(buf[offset:], rec.CheckpointLSN); at > 0 {
					offset += at
					continue
				}
			}
			if ferr != nil {
				// Torn or corrupt: cut here, drop everything after.
				info.Torn = true
				corrupted = true
				rec.TornBytes = int64(len(buf) - offset)
				if mutate {
					if terr := truncateAt(fs, path, int64(offset)); terr != nil {
						return nil, fmt.Errorf("wal: truncate %s: %w", name, terr)
					}
				}
				break
			}
			if r.LSN >= rec.NextLSN {
				rec.Records = append(rec.Records, r)
				rec.NextLSN = r.LSN + 1
				if info.Records == 0 {
					info.FirstLSN = r.LSN
				}
				info.LastLSN = r.LSN
				info.Records++
			}
			offset += frameLen
		}
		rec.segments = append(rec.segments, info)
		rec.tailSegment = name
	}

	if err := rec.redo(); err != nil {
		return nil, err
	}
	return rec, nil
}

// seekRecord returns the offset in buf of the first intact frame holding
// the record with LSN lsn, or 0 if there is none past buf's first byte.
// Frames start after a newline, and the checksum makes a false match
// negligible.
func seekRecord(buf []byte, lsn uint64) int {
	for at := 0; ; {
		nl := bytes.IndexByte(buf[at:], '\n')
		if nl < 0 {
			return 0
		}
		at += nl + 1
		if r, n, err := scanRecord(buf[at:]); err == nil && n > 0 && r.LSN == lsn {
			return at
		}
	}
}

// discard sets a file aside: renamed to *.corrupt when mutating, just
// recorded otherwise.
func (r *Recovery) discard(fs FS, dir, name string, mutate bool) {
	r.Dropped = append(r.Dropped, name)
	if mutate {
		fs.Rename(filepath.Join(dir, name), filepath.Join(dir, name+corruptSuffix))
	}
}

func readWhole(fs FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func truncateAt(fs FS, path string, size int64) error {
	f, err := fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// redo applies the recovered records to the checkpoint base, verifying
// each logged value against what the operation actually returns — a
// mismatch means the log or checkpoint is inconsistent and recovery must
// not trust it.
func (r *Recovery) redo() error {
	for _, rec := range r.Records {
		switch {
		case rec.Register != nil:
			// A re-registration of an existing object is a no-op (the
			// live path refuses the duplicate after logging it).
			if _, ok := r.states[rec.Register.Name]; !ok {
				r.states[rec.Register.Name] = rec.Register.Initial
			}
		case rec.Commit != nil:
			written, err := Redo(rec, func(obj string) (adt.State, bool) {
				st, ok := r.states[obj]
				return st, ok
			})
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			for obj, st := range written {
				r.states[obj] = st
			}
		}
	}
	return nil
}

// Redo applies commit record rec's effects in order, each to what the
// record's earlier writes made of its object, else to the committed
// state head returns, and verifies every logged value against what the
// operation produces there. It returns the states the record wrote — a
// read-only effect is verified and writes nothing — or the first
// mismatch. Recovery and the replication follower both replay with it.
func Redo(rec Record, head func(obj string) (adt.State, bool)) (map[string]adt.State, error) {
	var written map[string]adt.State
	for i, e := range rec.Commit.Effects {
		st, ok := written[e.Obj]
		if !ok {
			if st, ok = head(e.Obj); !ok {
				return nil, fmt.Errorf("record %d effect %d: unknown object %q", rec.LSN, i, e.Obj)
			}
		}
		next, v := e.Op.Apply(st)
		if v != e.Val {
			return nil, fmt.Errorf("record %d effect %d on %q: logged value %v, redo produced %v",
				rec.LSN, i, e.Obj, e.Val, v)
		}
		if !e.Op.ReadOnly() {
			if written == nil {
				written = make(map[string]adt.State)
			}
			written[e.Obj] = next
		}
	}
	return written, nil
}

// Schedule reconstructs the recovered history as a formal concurrent
// schedule over a fresh system type. Each recovered commit becomes one
// top-level transaction under T0 (numbered in LSN order) whose accesses
// are its logged effects, in the event pattern the live runtime records.
// A commit is staged before its locks are released, so log order agrees
// with every per-object conflict order and this serial rendering is a
// faithful account of what the pre-crash system did.
func (r *Recovery) Schedule() (event.Schedule, *event.SystemType, error) {
	st := event.NewSystemType()
	for x, s := range r.Checkpoint {
		st.DefineObject(x, s)
	}
	sched := event.Schedule{{Kind: event.Create, T: tree.Root}}
	k := 0
	for _, rec := range r.Records {
		if rec.Register != nil {
			if _, ok := st.ObjectInitial(rec.Register.Name); !ok {
				st.DefineObject(rec.Register.Name, rec.Register.Initial)
			}
			continue
		}
		c := rec.Commit
		t := tree.Root.Child(k)
		k++
		sched = append(sched,
			event.Event{Kind: event.RequestCreate, T: t},
			event.Event{Kind: event.Create, T: t},
		)
		var touched []string
		seen := make(map[string]bool)
		for j, e := range c.Effects {
			a := t.Child(j)
			if err := st.DefineAccess(a, e.Obj, e.Op); err != nil {
				return nil, nil, fmt.Errorf("wal: record %d: %w", rec.LSN, err)
			}
			sched = append(sched,
				event.Event{Kind: event.RequestCreate, T: a},
				event.Event{Kind: event.Create, T: a},
				event.Event{Kind: event.RequestCommit, T: a, Value: e.Val},
				event.Event{Kind: event.Commit, T: a},
				event.Event{Kind: event.InformCommitAt, T: a, Object: e.Obj},
				event.Event{Kind: event.ReportCommit, T: a, Value: e.Val},
			)
			if !seen[e.Obj] {
				seen[e.Obj] = true
				touched = append(touched, e.Obj)
			}
		}
		sched = append(sched,
			event.Event{Kind: event.RequestCommit, T: t, Value: c.Value},
			event.Event{Kind: event.Commit, T: t},
		)
		for _, x := range touched {
			sched = append(sched, event.Event{Kind: event.InformCommitAt, T: t, Object: x})
		}
		sched = append(sched, event.Event{Kind: event.ReportCommit, T: t, Value: c.Value})
	}
	return sched, st, nil
}
