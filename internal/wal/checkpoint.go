package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
// them durable and answers it. capture should return the committed-to-
// root states (Manager.Checkpoint wires this to the lock manager's root
// versions).
func (l *Log) Checkpoint(capture func() map[string]adt.State) error {
	return l.checkpoint(func(next uint64) (uint64, map[string]adt.State, error) {
		return next, capture(), nil
	})
}

// InstallSnapshot replaces the log's entire contents with a checkpoint
// at nextLSN holding states — the follower bootstrap path when its
// position has fallen below the leader's low-water mark: the records the
// follower is missing were truncated by the leader's checkpoints, so the
// follower adopts the leader's checkpoint wholesale and resumes
// streaming from nextLSN. Installing a snapshot behind the log's current
// position is refused (the log would have to forget durable records).
func (l *Log) InstallSnapshot(nextLSN uint64, states map[string]adt.State) error {
	return l.checkpoint(func(next uint64) (uint64, map[string]adt.State, error) {
		if nextLSN < next {
			return 0, nil, fmt.Errorf("wal: snapshot at %d behind log position %d", nextLSN, next)
		}
		return nextLSN, states, nil
	})
}

// checkpoint writes a checkpoint and cuts the log over to it. at answers,
// given the log's next LSN, at which LSN and with which states. The gate
// excludes stagers entirely, so the write path is quiescent once it is
// held; wmu and smu are still taken (in lock order) so the handle swap
// cannot race the syncer's fsync.
func (l *Log) checkpoint(at func(next uint64) (uint64, map[string]adt.State, error)) error {
	l.gate.Lock()
	defer l.gate.Unlock()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.smu.Lock()
	defer l.smu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.failed(); err != nil {
		return err
	}
	lsn, states, err := at(l.nextLSN)
	if err != nil {
		return err
	}
	// Encode before touching any file, so an unencodable state aborts
	// the checkpoint without harming the log.
	payload, err := marshalCheckpoint(lsn, states)
	if err != nil {
		return err
	}
	name := checkpointName(lsn)
	if err := l.writeFileAtomic(name+".tmp", name, appendFrame(nil, payload)); err != nil {
		return l.latch(err)
	}
	if err := l.cutover(name, lsn); err != nil {
		return err
	}
	l.met.ObserveCheckpoint(lsn)
	return nil
}

// cutover finishes a checkpoint whose file keep is already durable: it
// seals the active segment, removes every other log file and opens a
// fresh active segment at lsn. Called with gate, wmu and smu held: no
// stager holds the gate, so nothing is mid-stage, but records below lsn
// may be staged in wbuf or written and unsynced with their tickets
// parked. The seal's fsync makes them durable and answers those tickets —
// with the checkpoint already renamed into place, recovery finds them
// whatever happens next; a later step that fails latches the log and
// fails the checkpoint, not those commits.
func (l *Log) cutover(keep string, lsn uint64) error {
	if err := l.seal(); err != nil {
		return err
	}
	// An installed snapshot can start past the log's end; it covers the gap.
	l.mu.Lock()
	l.nextLSN = lsn
	l.mu.Unlock()
	l.advance(lsn)
	// Everything below the checkpoint LSN is now redundant. Remove before
	// opening: a checkpoint at the active segment's own first LSN
	// re-creates a file of the same name.
	segs, ckpts, rest, err := listDir(l.fs, l.dir)
	if err != nil {
		return l.latch(err)
	}
	for _, e := range append(segs, ckpts...) {
		if e.name != keep {
			// Best-effort: a leftover file is ignored by recovery anyway
			// (its records are below the checkpoint LSN).
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
