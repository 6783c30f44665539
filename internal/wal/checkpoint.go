package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nestedtx/internal/adt"
)

// A checkpoint is one framed JSON document holding the committed-to-root
// state of every object as of an LSN: redoing records [0, NextLSN) from
// the initial states yields exactly these states. It is written to a
// temporary file, fsynced, renamed into place and the directory synced —
// a crash at any point leaves either the old checkpoint or the new one,
// never a half of either. Only after the new checkpoint is durable are
// the segments below its LSN removed (low-water truncation), so the redo
// information for the current states is never lost.

type jsonCheckpoint struct {
	NextLSN uint64         `json:"next_lsn"`
	Objects []jsonObjState `json:"objects"`
}

type jsonObjState struct {
	Name string          `json:"x"`
	St   json.RawMessage `json:"st"`
}

func marshalCheckpoint(nextLSN uint64, states map[string]adt.State) ([]byte, error) {
	ck := jsonCheckpoint{NextLSN: nextLSN, Objects: make([]jsonObjState, 0, len(states))}
	names := make([]string, 0, len(states))
	for x := range states {
		names = append(names, x)
	}
	sort.Strings(names)
	for _, x := range names {
		raw, err := adt.EncodeState(states[x])
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint %q: %w", x, err)
		}
		ck.Objects = append(ck.Objects, jsonObjState{Name: x, St: raw})
	}
	return json.Marshal(ck)
}

func unmarshalCheckpoint(payload []byte) (uint64, map[string]adt.State, error) {
	var ck jsonCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return 0, nil, fmt.Errorf("wal: decode checkpoint: %w", err)
	}
	states := make(map[string]adt.State, len(ck.Objects))
	for _, o := range ck.Objects {
		st, err := adt.DecodeState(o.St)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: checkpoint %q: %w", o.Name, err)
		}
		states[o.Name] = st
	}
	return ck.NextLSN, states, nil
}

// Checkpoint snapshots the states returned by capture and truncates the
// log below them. capture runs with staging excluded: the checkpoint
// gate is held from a record's stage through its apply, so every record
// already staged has been applied and nothing is between the two — the
// captured states are exactly the redo of records [0, NextLSN). Commits
// may still be parked on their tickets; the checkpoint makes every one of
// them durable and retires it. capture should return the committed-to-
// root states (Manager.Checkpoint wires this to the lock manager's root
// versions).
func (l *Log) Checkpoint(capture func() map[string]adt.State) error {
	l.gate.Lock()
	defer l.gate.Unlock()
	// The gate excludes stagers entirely, so the write path is quiescent
	// once acquired; wmu/smu are still taken (in lock order) so the handle
	// swap cannot race the syncer's fsync.
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.smu.Lock()
	defer l.smu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if lerr := l.err; lerr != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log failed: %w", lerr)
	}
	nextLSN := l.nextLSN
	l.mu.Unlock()
	// Encode before touching any file, so an unencodable state aborts
	// the checkpoint without harming the log.
	payload, err := marshalCheckpoint(nextLSN, capture())
	if err != nil {
		return err
	}

	name := checkpointName(nextLSN)
	tmp := name + ".tmp"
	if err := l.writeFileAtomic(tmp, name, appendFrame(nil, payload)); err != nil {
		l.latch(err)
		return err
	}
	if err := l.cutover(name, nextLSN); err != nil {
		return err
	}
	l.met.ObserveCheckpoint(nextLSN)
	return nil
}

// InstallSnapshot replaces the log's entire contents with a checkpoint
// at nextLSN holding states — the follower bootstrap path when its
// position has fallen below the leader's low-water mark: the records the
// follower is missing were truncated by the leader's checkpoints, so the
// follower adopts the leader's checkpoint wholesale and resumes
// streaming from nextLSN. Installing a snapshot behind the log's current
// position is refused (the log would have to forget durable records).
func (l *Log) InstallSnapshot(nextLSN uint64, states map[string]adt.State) error {
	l.gate.Lock()
	defer l.gate.Unlock()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.smu.Lock()
	defer l.smu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if lerr := l.err; lerr != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log failed: %w", lerr)
	}
	if nextLSN < l.nextLSN {
		pos := l.nextLSN
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot at %d behind log position %d", nextLSN, pos)
	}
	l.mu.Unlock()
	payload, err := marshalCheckpoint(nextLSN, states)
	if err != nil {
		return err
	}
	name := checkpointName(nextLSN)
	if err := l.writeFileAtomic(name+".tmp", name, appendFrame(nil, payload)); err != nil {
		l.latch(err)
		return err
	}
	l.mu.Lock()
	l.nextLSN = nextLSN
	l.mu.Unlock()
	l.writeSeq = nextLSN // wmu held: the next write ticket continues here
	if err := l.cutover(name, nextLSN); err != nil {
		return err
	}
	l.met.ObserveCheckpoint(nextLSN)
	return nil
}

// cutover finishes a checkpoint (or snapshot install) whose file keep is
// already durable: it seals and retires every other log file and opens a
// fresh active segment at lsn. Called with gate, wmu and smu held: no
// stager holds the gate, so nothing is mid-write, but records below lsn
// may be staged in wbuf or written and unsynced with their tickets
// parked. The seal makes them durable; a cutover that succeeds retires
// those tickets, one that fails latches the fault the next flush fails
// them with.
func (l *Log) cutover(keep string, lsn uint64) error {
	fail := func(err error) error {
		l.latch(err)
		return err
	}
	// Everything below the checkpoint LSN is now redundant: seal the
	// active segment, drop old files, start fresh.
	start := time.Now()
	if buf := l.drain(); len(buf) > 0 {
		if _, err := l.f.Write(buf); err != nil {
			return fail(fmt.Errorf("wal: checkpoint drain: %w", err))
		}
	}
	if err := l.f.Sync(); err != nil {
		return fail(fmt.Errorf("wal: checkpoint seal: %w", err))
	}
	sealed := time.Since(start)
	if err := l.f.Close(); err != nil {
		return fail(fmt.Errorf("wal: checkpoint close: %w", err))
	}
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fail(fmt.Errorf("wal: checkpoint readdir: %w", err))
	}
	for _, n := range names {
		if n == keep {
			continue
		}
		if strings.HasPrefix(n, "wal-") || strings.HasPrefix(n, "ckpt-") {
			// Best-effort: a leftover file is ignored by recovery anyway
			// (its records are below the checkpoint LSN).
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
	segName := segmentName(lsn)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("wal: checkpoint segment: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fail(fmt.Errorf("wal: checkpoint sync dir: %w", err))
	}
	l.f, l.segName, l.segBytes = f, segName, 0
	l.mu.Lock()
	l.ckptLSN = lsn
	l.statSegName, l.statSegBytes = segName, 0
	l.written = lsn
	l.mu.Unlock()
	l.finishFlush(lsn, sealed, nil)
	return nil
}

// writeFileAtomic writes data to tmp, fsyncs it, renames it to name and
// fsyncs the directory.
func (l *Log) writeFileAtomic(tmp, name string, data []byte) error {
	tmpPath := filepath.Join(l.dir, tmp)
	f, err := l.fs.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
	if err := l.fs.Rename(tmpPath, filepath.Join(l.dir, name)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint sync dir: %w", err)
	}
	return nil
}
