package wal

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nestedtx/internal/adt"
	"nestedtx/internal/jscan"
)

// A checkpoint is one framed JSON document holding the committed-to-root
// state of every object as of an LSN: redoing records [0, LSN) from the
// initial states yields exactly these states. It is taken in two phases.
// The capture is O(1) and runs with staging excluded: it notes the LSN and
// holds the states there (a snapshot-store hold on a manager). The rest
// runs with commits flowing: wait until every record below the LSN is
// durable, stream the held states into one frame, write it to a temporary
// file, fsync, rename it into place and sync the directory — a crash at
// any point leaves either the old checkpoint or the new one, never a half
// of either — and only then remove the segments wholly below the LSN and
// the older checkpoints. The active segment is never sealed, rotated or
// removed by a checkpoint, so the redo information for the current states
// is never lost, and a checkpoint that fails leaves the log as it was.

// Cut is a consistent set of committed states: every object's state
// after the redo of exactly the records below LSN.
type Cut struct {
	LSN uint64
	// States yields every object and its state, in ascending name order.
	States iter.Seq2[string, adt.State]
	// Release, when set, is called once the checkpoint is done with States.
	Release func()
}

// Capture returns the cut a checkpoint writes. The log calls it with
// staging excluded — every record below next has been staged and its
// apply callback has returned, and no other record has been staged — so
// it must be O(1): note the LSN, hold the states there, and leave reading
// them to States.
type Capture func(next uint64) Cut

// Checkpoint writes a checkpoint of the cut capture returns and removes
// the segments wholly below it. Commits are excluded only while capture
// runs; the checkpoint then waits for every record below its LSN to be
// durable (a commit parked on its ticket is answered before Checkpoint
// returns) and writes the file with commits flowing. A checkpoint that
// fails — an unencodable state, a failed write or rename — returns the
// error and leaves the log unlatched: no segment was touched.
func (l *Log) Checkpoint(capture Capture) error {
	l.ckmu.Lock()
	defer l.ckmu.Unlock()
	cut, err := l.capture(capture)
	if err != nil {
		return err
	}
	if cut.Release != nil {
		defer cut.Release()
	}
	l.mu.Lock()
	behind, hint := cut.LSN < l.ckptLSN, l.ckptBytes
	l.mu.Unlock()
	if behind {
		return nil // a newer checkpoint (an installed snapshot) covers it
	}
	if cut.LSN > 0 {
		if err := (Ticket{l, cut.LSN - 1}).Wait(); err != nil {
			return err
		}
	}
	frame, err := encodeCheckpoint(make([]byte, 0, hint+hint/8+frameRoom), cut.LSN, cut.States)
	if err != nil {
		return err
	}
	if err := l.writeFileAtomic(checkpointName(cut.LSN), frame); err != nil {
		return err
	}
	l.removeBelow(cut.LSN)
	l.mu.Lock()
	l.ckptLSN, l.ckptBytes = cut.LSN, int64(len(frame))
	// A cut covers the segments whose successor starts at or below it. One
	// that trails the log (a follower's) leaves those above it to the redo.
	for len(l.sealedSegs) > 0 && l.sealedSegs[0].end <= cut.LSN {
		l.uncovered, l.sealedSegs = l.uncovered-l.sealedSegs[0].size, l.sealedSegs[1:]
	}
	l.mu.Unlock()
	l.met.ObserveCheckpoint(cut.LSN)
	return nil
}

// capture runs capture with staging excluded.
func (l *Log) capture(capture Capture) (Cut, error) {
	l.gate.Lock()
	defer l.gate.Unlock()
	l.wmu.Lock()
	next, closed := l.nextLSN, l.closed
	l.wmu.Unlock()
	if closed {
		return Cut{}, fmt.Errorf("wal: log closed")
	}
	if err := l.failed(); err != nil {
		return Cut{}, err
	}
	cut := capture(next)
	if cut.LSN > next {
		if cut.Release != nil {
			cut.Release()
		}
		return Cut{}, fmt.Errorf("wal: checkpoint at %d past the log's end %d", cut.LSN, next)
	}
	return cut, nil
}

// AutoCheckpoint makes the log checkpoint itself with capture once the
// segments sealed since its last checkpoint hold more than
// max(4 × SegmentBytes, the size of the last checkpoint file). The first
// bound keeps restart redo within a few segments; the second keeps the
// checkpoints' I/O at or below the log's. The checkpoint runs on its own
// goroutine, started by the rotation that crosses the threshold; one that
// fails is retried at the next rotation. Close waits for a checkpoint in
// progress, as for any other. Call it before the log is shared.
func (l *Log) AutoCheckpoint(capture Capture) {
	l.mu.Lock()
	l.auto = capture
	l.mu.Unlock()
}

// dueLocked reports whether the sealed volume calls for a checkpoint.
// Caller holds mu.
func (l *Log) dueLocked() bool {
	return l.auto != nil && l.uncovered > max(4*l.segLimit, l.ckptBytes)
}

// sealedSeg is a sealed segment: its size and where its successor starts.
type sealedSeg struct {
	end  uint64
	size int64
}

// sealed accounts a segment of n bytes, sealed by rotation or found by
// recovery, whose successor starts at end; it then starts a checkpoint if
// one is due and none is running. Called with wmu held, so never after
// Close has set closed.
func (l *Log) sealed(n int64, end uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.uncovered += n
	l.sealedSegs = append(l.sealedSegs, sealedSeg{end, n})
	if !l.autoRunning && l.dueLocked() {
		l.autoRunning = true
		go l.autoCheckpoint(l.auto)
	}
}

// autoCheckpoint checkpoints until the sealed volume is below the
// threshold again, or a checkpoint fails (as every one does once the log
// is closed).
func (l *Log) autoCheckpoint(capture Capture) {
	for {
		err := l.Checkpoint(capture)
		l.mu.Lock()
		if err != nil || !l.dueLocked() {
			l.autoRunning = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
}

// removeBelow removes every segment wholly below lsn — each one whose
// successor starts at or below it — every older checkpoint and every file
// recovery set aside. Best-effort: a leftover file holds only records
// below the newest checkpoint, which recovery skips.
func (l *Log) removeBelow(lsn uint64) {
	segs, ckpts, rest, err := listDir(l.fs, l.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs) && segs[i+1].lsn <= lsn; i++ {
		l.fs.Remove(filepath.Join(l.dir, segs[i].name))
	}
	for _, e := range ckpts {
		if e.lsn < lsn {
			l.fs.Remove(filepath.Join(l.dir, e.name))
		}
	}
	for _, n := range rest {
		if strings.HasSuffix(n, corruptSuffix) {
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
}

// ErrBadSnapshot is wrapped by the errors of a snapshot InstallSnapshot
// refuses without touching the log.
var ErrBadSnapshot = errors.New("wal: bad snapshot")

// InstallSnapshot replaces the log's entire contents with file, another
// log's checkpoint file, and returns its states — the follower bootstrap
// path when its position has fallen below the leader's low-water mark:
// the follower adopts the leader's checkpoint wholesale and resumes
// streaming from its LSN. A file that is not one whole checkpoint frame,
// or one behind the log's position (the log would have to forget durable
// records), is refused with ErrBadSnapshot before any file is touched.
// Unlike Checkpoint it holds the write path throughout: it moves the log's
// position, so nothing may stage until the new segment is open.
func (l *Log) InstallSnapshot(file []byte) (map[string]adt.State, error) {
	lsn, states, err := unmarshalCheckpoint(wholeFrame(file))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	l.ckmu.Lock()
	defer l.ckmu.Unlock()
	l.gate.Lock()
	defer l.gate.Unlock()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.smu.Lock()
	defer l.smu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("wal: log closed")
	}
	if err := l.failed(); err != nil {
		return nil, err
	}
	if lsn < l.nextLSN {
		return nil, fmt.Errorf("%w: at %d, behind log position %d", ErrBadSnapshot, lsn, l.nextLSN)
	}
	name := checkpointName(lsn)
	if err := l.writeFileAtomic(name, file); err != nil {
		return nil, l.latch(err)
	}
	if err := l.cutover(name, lsn); err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.ckptBytes, l.uncovered, l.sealedSegs = int64(len(file)), 0, nil
	l.mu.Unlock()
	l.met.ObserveCheckpoint(lsn)
	return states, nil
}

// cutover finishes an installed snapshot whose file keep is already
// durable: it seals the active segment, removes every other log file and
// opens a fresh active segment at lsn. Called with gate, wmu and smu
// held: nothing is mid-stage, but records below lsn may be staged in wbuf
// or written and unsynced with their tickets parked. The seal's fsync
// makes them durable and answers those tickets; a later step that fails
// latches the log and fails the install, not those commits.
func (l *Log) cutover(keep string, lsn uint64) error {
	if err := l.seal(); err != nil {
		return err
	}
	// The snapshot can start past the log's end; it covers the gap.
	l.mu.Lock()
	l.nextLSN = lsn
	l.mu.Unlock()
	l.advance(lsn)
	// Everything below the checkpoint LSN is now redundant. Remove before
	// opening: a snapshot at the active segment's own first LSN re-creates
	// a file of the same name.
	segs, ckpts, rest, err := listDir(l.fs, l.dir)
	if err != nil {
		return l.latch(err)
	}
	for _, e := range append(segs, ckpts...) {
		if e.name != keep {
			l.fs.Remove(filepath.Join(l.dir, e.name))
		}
	}
	for _, n := range rest {
		if strings.HasSuffix(n, corruptSuffix) {
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
	if err := l.openSegment(lsn); err != nil {
		return err
	}
	l.mu.Lock()
	l.ckptLSN = lsn
	l.mu.Unlock()
	return nil
}

// writeFileAtomic writes data to name's temporary twin, fsyncs it, renames
// it to name and fsyncs the directory. A failure before the rename
// removes the temporary file.
func (l *Log) writeFileAtomic(name string, data []byte) error {
	tmpPath := filepath.Join(l.dir, name+".tmp")
	err := writeFile(l.fs, tmpPath, data)
	if err == nil {
		if rerr := l.fs.Rename(tmpPath, filepath.Join(l.dir, name)); rerr != nil {
			err = fmt.Errorf("wal: checkpoint rename: %w", rerr)
		}
	}
	if err != nil {
		l.fs.Remove(tmpPath)
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint sync dir: %w", err)
	}
	return nil
}

// writeFile creates path holding data and fsyncs it.
func writeFile(fs FS, path string, data []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	return nil
}

// encodeCheckpoint builds the checkpoint frame of states at lsn in buf's
// spare capacity (growing it as needed) and returns it. The payload is
// streamed straight into the frame, in exactly the bytes encoding/json
// gave {"next_lsn":…,"objects":[{"x":…,"st":…},…]}, and sealHeader then
// writes the header into the room left in front of it.
func encodeCheckpoint(buf []byte, lsn uint64, states iter.Seq2[string, adt.State]) ([]byte, error) {
	at := len(buf) + frameRoom
	buf = append(buf, make([]byte, frameRoom)...)
	buf = strconv.AppendUint(append(buf, `{"next_lsn":`...), lsn, 10)
	buf = append(buf, `,"objects":[`...)
	sep := ""
	var err error
	for x, st := range states {
		buf = jscan.AppendString(append(append(buf, sep...), `{"x":`...), x)
		if buf, err = adt.AppendState(append(buf, `,"st":`...), st); err != nil {
			return nil, fmt.Errorf("wal: checkpoint %q: %w", x, err)
		}
		buf, sep = append(buf, '}'), ","
	}
	buf, start := sealHeader(append(buf, "]}"...), at)
	return buf[start:], nil
}

// scanCheckpoint reads a checkpoint payload, handing each object's name
// and raw state encoding to each, and returns the checkpoint's LSN. It
// accepts what encoding/json accepted for the same document, keys
// matched case-sensitively.
func scanCheckpoint(payload []byte, each func(name string, raw []byte) error) (uint64, error) {
	var lsn uint64
	s := jscan.New(payload)
	err := s.Object(func(k []byte) error {
		switch string(k) {
		case "next_lsn":
			return s.Uint64(&lsn)
		case "objects":
			return s.Array(func() error {
				var name string
				var raw []byte
				if err := s.Object(func(k []byte) error {
					switch string(k) {
					case "x":
						return s.String(&name)
					case "st":
						return s.Raw(&raw)
					}
					return s.Skip()
				}); err != nil {
					return err
				}
				return each(name, raw)
			})
		}
		return s.Skip()
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return 0, fmt.Errorf("wal: decode checkpoint: %w", err)
	}
	return lsn, nil
}

// unmarshalCheckpoint decodes a checkpoint payload into its LSN and
// states.
func unmarshalCheckpoint(payload []byte) (uint64, map[string]adt.State, error) {
	states := make(map[string]adt.State)
	lsn, err := scanCheckpoint(payload, func(x string, raw []byte) error {
		st, err := adt.DecodeState(raw)
		if err != nil {
			return fmt.Errorf("wal: checkpoint %q: %w", x, err)
		}
		states[x] = st
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return lsn, states, nil
}

// ReadCheckpoint returns the newest valid checkpoint file in dir, whole,
// and its LSN, or an error if dir holds none. It needs no coordination
// with a live writer: a checkpoint removed under it by a newer one sends
// it back to the directory.
func ReadCheckpoint(dir string, fs FS) (uint64, []byte, error) {
	for attempt := 0; attempt < 8; attempt++ {
		_, ckpts, _, err := listDir(fs, dir)
		if err != nil {
			return 0, nil, err
		}
		vanished := false
		for _, ck := range ckpts {
			file, payload, err := readCheckpointFile(fs, dir, ck)
			if os.IsNotExist(err) {
				vanished = true
				break
			}
			if err == nil && payload != nil {
				return ck.lsn, file, nil
			}
		}
		if !vanished {
			break
		}
	}
	return 0, nil, fmt.Errorf("wal: no valid checkpoint in %s", dir)
}

// readCheckpointFile returns checkpoint ck's file and its payload, or a
// nil payload if the file is not one whole frame holding a well-formed
// checkpoint at the LSN its name carries. A read error is returned as-is.
func readCheckpointFile(fs FS, dir string, ck dirEntry) (file, payload []byte, err error) {
	if file, err = readWhole(fs, filepath.Join(dir, ck.name)); err != nil {
		return nil, nil, err
	}
	payload = wholeFrame(file)
	if next, err := scanCheckpoint(payload, func(string, []byte) error { return nil }); err != nil || next != ck.lsn {
		return file, nil, nil
	}
	return file, payload, nil
}

// wholeFrame returns the payload of file if it is exactly one intact
// frame, and nil, which decodes as no checkpoint, otherwise. The frame may
// be as long as the file: a checkpoint holds every object, so no
// record-sized bound applies to it.
func wholeFrame(file []byte) []byte {
	payload, n, err := scanFrameMax(file, len(file))
	if err != nil || n != len(file) {
		return nil
	}
	return payload
}
