package wal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// ErrTruncated is returned by Tailer.Next when the position it wants has
// been truncated away by a checkpoint: the low-water mark moved past it
// and the records are gone. The reader must restart from a snapshot —
// re-resolve the floor via Inspect, or (a replication follower) ask the
// leader for its checkpoint.
var ErrTruncated = errors.New("wal: tail position below the log's low-water mark")

// Tailer incrementally reads records from a live log directory, in LSN
// order, without coordinating with the writer: it re-reads the active
// segment from its last offset on each call, stops cleanly at a frame
// that is still being written, and follows segment rotations and
// checkpoint truncations by re-resolving the directory. The leader-side
// replication shipper (internal/repl) and txwal tail are the two users.
//
// The contract with the writer is purely convention: segments are named
// after their first LSN, a rotation or an installed snapshot opens the
// segment named after the next record, a checkpoint removes only the
// segments wholly below its LSN (never the active one, and never opens
// one), and an installed snapshot removes every other segment. A frame
// that does not parse at the live tail is treated as "mid-write, try again
// later", never as corruption — torn-tail adjudication belongs to
// recovery, not to a tailer racing the writer; only a bad frame with an
// intact frame of the wanted LSN after it is skipped, as recovery skips
// one below its checkpoint.
//
// Frames land in the segment in batches (a flush writes the staged batch
// just before its fsync), so the file may momentarily end short of the
// log's next LSN and may hold frames beyond its durable mark. Callers that
// must not read past what a crash could lose — the replication shipper —
// gate on DurableLSN; the tailer itself only promises LSN order and clean
// stops at the live end.
//
// A Tailer is not safe for concurrent use.
type Tailer struct {
	dir  string
	fs   FS
	next uint64 // LSN of the next record wanted
	seg  string // resolved segment holding (or about to hold) next; "" = unresolved
	off  int64  // byte offset of the first unread frame in seg
}

// NewTailer positions a tailer so its first Next returns the record with
// LSN from (records below it in the same segment are skipped). A nil fs
// means the real file system.
func NewTailer(dir string, fs FS, from uint64) *Tailer {
	if fs == nil {
		fs = OSFS{}
	}
	return &Tailer{dir: dir, fs: fs, next: from}
}

// NextLSN returns the LSN the next returned record will carry.
func (t *Tailer) NextLSN() uint64 { return t.next }

// Next returns the next run of records, bounded by maxRecords and (the
// sum of encoded frame sizes) maxBytes; a bound <= 0 means unbounded.
// An empty result with a nil error means the tail is caught up — poll
// again later, or wait on the writer's Log.Watch. ErrTruncated means the
// wanted position was checkpointed away (see above).
func (t *Tailer) Next(maxRecords, maxBytes int) ([]Record, error) {
	var out []Record
	bytes := 0
	full := func() bool {
		return (maxRecords > 0 && len(out) >= maxRecords) || (maxBytes > 0 && bytes >= maxBytes)
	}
	for resets := 0; resets < 8; resets++ {
		if full() {
			return out, nil
		}
		if t.seg == "" {
			ok, err := t.resolve()
			if err != nil || !ok {
				if len(out) > 0 {
					return out, nil // deliver; the condition resurfaces next call
				}
				return nil, err
			}
		}
		buf, err := readWhole(t.fs, filepath.Join(t.dir, t.seg))
		if err != nil {
			// The segment vanished under a checkpoint truncation (or was
			// never created): re-resolve from the directory.
			t.seg, t.off = "", 0
			if len(out) > 0 {
				return out, nil
			}
			continue
		}
		if int64(len(buf)) < t.off {
			// The segment shrank under us (a recovery scan truncated a torn
			// tail): our offset is meaningless, start the segment over.
			t.seg, t.off = "", 0
			continue
		}
		clean := false
		for !full() {
			r, n, ferr := scanRecord(buf[t.off:])
			if ferr != nil {
				// A corrupt frame before the one wanted — below a checkpoint
				// that left its segment in place — is skipped over.
				if at := seekRecord(buf[t.off:], t.next); at > 0 {
					t.off += int64(at)
					continue
				}
			}
			if ferr != nil || n == 0 {
				// The end of what this segment has, or a frame mid-write at
				// the live tail: stop here, retry later.
				clean = ferr == nil
				break
			}
			t.off += int64(n)
			if r.LSN < t.next {
				continue // skipping toward the start position
			}
			if r.LSN != t.next {
				return out, fmt.Errorf("wal: tail LSN gap in %s: got %d, want %d", t.seg, r.LSN, t.next)
			}
			out = append(out, r)
			bytes += n
			t.next++
		}
		// On a clean end, follow a rotation: the writer opens the next
		// segment under exactly the name of the next record's LSN.
		if nextSeg := segmentName(t.next); clean && nextSeg != t.seg && t.exists(nextSeg) {
			t.seg, t.off = nextSeg, 0
			continue
		}
		return out, nil
	}
	return out, nil
}

// resolve locates the segment that holds (or will hold) t.next: the one
// with the greatest name-LSN not above it. ok is false when no segment
// covers the position yet (nothing to read); ErrTruncated reports that
// the low-water mark has moved past it.
func (t *Tailer) resolve() (bool, error) {
	segs, ckpts, _, err := listDir(t.fs, t.dir)
	if err != nil {
		return false, err
	}
	if len(segs) == 0 {
		if len(ckpts) > 0 && ckpts[0].lsn > t.next {
			return false, ErrTruncated
		}
		return false, nil
	}
	if t.next < segs[0].lsn {
		return false, ErrTruncated
	}
	pick := segs[0]
	for _, seg := range segs {
		if seg.lsn > t.next {
			break
		}
		pick = seg
	}
	t.seg, t.off = pick.name, 0
	return true, nil
}

func (t *Tailer) exists(name string) bool {
	_, err := t.fs.Size(filepath.Join(t.dir, name))
	return err == nil
}
