package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"

	"nestedtx/internal/adt"
	"nestedtx/internal/jscan"
)

// The log stores two kinds of records. A register record introduces an
// object with its initial state; a commit record is the redo image of one
// committed top-level transaction: its surviving accesses in effect
// order, each op and its returned value in the adt codec encoding (the
// same tagged JSON the wire protocol and schedule-persistence tools use).
// Logging the returned values as well as the ops is what lets recovery do
// more than replay blindly: the reconstructed schedule carries the values
// the live run actually returned, and the Theorem-34 checker verifies
// them against the object automata.

// Effect is one surviving access of a committed top-level transaction:
// op applied to obj returned val.
type Effect struct {
	Obj string
	Op  adt.Op
	Val adt.Value
}

// CommitRecord is the redo image of one committed top-level transaction.
type CommitRecord struct {
	TID     string // runtime TID at commit time (informational; recovery renumbers)
	Value   adt.Value
	Effects []Effect
}

// RegisterRecord introduces an object and its initial state.
type RegisterRecord struct {
	Name    string
	Initial adt.State
}

// Record is one decoded log record. Exactly one of Commit and Register
// is non-nil.
type Record struct {
	LSN      uint64
	Commit   *CommitRecord
	Register *RegisterRecord
}

// ---- JSON forms ----

type jsonEffect struct {
	Obj string          `json:"x"`
	Op  json.RawMessage `json:"op"`
	Val json.RawMessage `json:"v"`
}

type jsonRecord struct {
	LSN  uint64          `json:"lsn"`
	Kind string          `json:"k"` // "commit" | "register"
	TID  string          `json:"tid,omitempty"`
	Val  json.RawMessage `json:"v,omitempty"`
	Ops  []jsonEffect    `json:"ops,omitempty"`
	Obj  string          `json:"obj,omitempty"`
	St   json.RawMessage `json:"st,omitempty"`
}

// appendBody appends r's JSON from the member after the LSN on —
// `,"k":…}` — in exactly the bytes encoding/json gave jsonRecord. The
// appender encodes this much before its LSN exists, so the expensive part
// stays outside the log's critical sections; sealFrame adds the rest.
func appendBody(dst []byte, r Record) ([]byte, error) {
	var err error
	switch {
	case r.Commit != nil:
		c := r.Commit
		dst = append(dst, `,"k":"commit"`...)
		if c.TID != "" {
			dst = jscan.AppendString(append(dst, `,"tid":`...), c.TID)
		}
		// A top-level Return value may be any comparable type, and the
		// checker never inspects top-level commit values, so one outside
		// the library vocabulary degrades to nil in the log rather than
		// failing the commit. Access values are always library values.
		dst = append(dst, `,"v":`...)
		if enc, err := adt.AppendValue(dst, c.Value); err == nil {
			dst = enc
		} else {
			dst, _ = adt.AppendValue(dst, nil)
		}
		for i, e := range c.Effects {
			sep := `,{"x":`
			if i == 0 {
				sep = `,"ops":[{"x":`
			}
			dst = jscan.AppendString(append(dst, sep...), e.Obj)
			if dst, err = adt.AppendOp(append(dst, `,"op":`...), e.Op); err != nil {
				return nil, fmt.Errorf("wal: %s op %d on %q: %w", c.TID, i, e.Obj, err)
			}
			if dst, err = adt.AppendValue(append(dst, `,"v":`...), e.Val); err != nil {
				return nil, fmt.Errorf("wal: %s value %d on %q: %w", c.TID, i, e.Obj, err)
			}
			dst = append(dst, '}')
		}
		if len(c.Effects) > 0 {
			dst = append(dst, ']')
		}
	case r.Register != nil:
		dst = append(dst, `,"k":"register"`...)
		if r.Register.Name != "" {
			dst = jscan.AppendString(append(dst, `,"obj":`...), r.Register.Name)
		}
		if dst, err = adt.AppendState(append(dst, `,"st":`...), r.Register.Initial); err != nil {
			return nil, fmt.Errorf("wal: register %q: %w", r.Register.Name, err)
		}
	default:
		return nil, fmt.Errorf("wal: empty record")
	}
	return append(dst, '}'), nil
}

func unmarshalRecord(data []byte) (Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(data, &jr); err != nil {
		return Record{}, fmt.Errorf("wal: decode record: %w", err)
	}
	r := Record{LSN: jr.LSN}
	switch jr.Kind {
	case "commit":
		c := &CommitRecord{TID: jr.TID}
		if len(jr.Val) > 0 {
			v, err := adt.DecodeValue(jr.Val)
			if err != nil {
				return Record{}, fmt.Errorf("wal: record %d: %w", jr.LSN, err)
			}
			c.Value = v
		}
		c.Effects = make([]Effect, len(jr.Ops))
		for i, je := range jr.Ops {
			op, err := adt.DecodeOp(je.Op)
			if err != nil {
				return Record{}, fmt.Errorf("wal: record %d op %d: %w", jr.LSN, i, err)
			}
			val, err := adt.DecodeValue(je.Val)
			if err != nil {
				return Record{}, fmt.Errorf("wal: record %d value %d: %w", jr.LSN, i, err)
			}
			c.Effects[i] = Effect{Obj: je.Obj, Op: op, Val: val}
		}
		r.Commit = c
	case "register":
		st, err := adt.DecodeState(jr.St)
		if err != nil {
			return Record{}, fmt.Errorf("wal: record %d register %q: %w", jr.LSN, jr.Obj, err)
		}
		r.Register = &RegisterRecord{Name: jr.Obj, Initial: st}
	default:
		return Record{}, fmt.Errorf("wal: record %d: unknown kind %q", jr.LSN, jr.Kind)
	}
	return r, nil
}

// ---- framing ----

// Frames mirror the wire protocol's shape with an added checksum:
//
//	<payload-len> <crc32c-hex>\n
//	<payload JSON>\n
//
// The CRC (Castagnoli) covers the payload bytes only. Anything that does
// not parse — short header, short payload, checksum mismatch, bad JSON,
// non-contiguous LSN — marks the torn point: recovery truncates there
// and never replays a byte past it. The one exception is a bad frame
// below the checkpoint, whose record redo does not need: recovery skips
// it to the checkpoint's own record (see scanDir).

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordSize bounds a single record frame; a header claiming more is
// corruption, not a big record. A checkpoint file is one frame bounded
// only by the file's size (see readCheckpointFile). It is a variable only
// so tests can lower it.
var maxRecordSize = 64 << 20

// appendFrame appends the framed encoding of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(crc32.Checksum(payload, castagnoli)), 16)
	dst = append(dst, '\n')
	dst = append(dst, payload...)
	dst = append(dst, '\n')
	return dst
}

// scanFrame parses one frame at the start of buf. It returns the payload
// and the total frame length. A nil payload with err == nil means buf is
// empty (clean end). Any malformation returns an error; the caller
// treats the frame start as the torn point.
func scanFrame(buf []byte) (payload []byte, frameLen int, err error) {
	return scanFrameMax(buf, maxRecordSize)
}

// scanFrameMax is scanFrame for a frame whose payload may be up to limit
// bytes.
func scanFrameMax(buf []byte, limit int) (payload []byte, frameLen int, err error) {
	if len(buf) == 0 {
		return nil, 0, nil
	}
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("wal: torn frame header")
	}
	header := buf[:nl]
	sp := bytes.IndexByte(header, ' ')
	if sp < 0 {
		return nil, 0, fmt.Errorf("wal: malformed frame header %q", header)
	}
	size, err := strconv.ParseInt(string(header[:sp]), 10, 64)
	if err != nil || size < 0 || size > int64(limit) {
		return nil, 0, fmt.Errorf("wal: bad frame length %q", header[:sp])
	}
	sum, err := strconv.ParseUint(string(header[sp+1:]), 16, 32)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: bad frame checksum %q", header[sp+1:])
	}
	end := nl + 1 + int(size) + 1
	if end > len(buf) {
		return nil, 0, fmt.Errorf("wal: torn frame payload (%d of %d bytes)", len(buf)-nl-1, size+1)
	}
	payload = buf[nl+1 : nl+1+int(size)]
	if buf[end-1] != '\n' {
		return nil, 0, fmt.Errorf("wal: missing frame terminator")
	}
	if got := crc32.Checksum(payload, castagnoli); uint32(sum) != got {
		return nil, 0, fmt.Errorf("wal: checksum mismatch: header %08x, payload %08x", sum, got)
	}
	return payload, end, nil
}

// scanRecord parses the record framed at the start of buf and returns it
// with its frame's length. A zero length with a nil error means buf is
// empty (clean end); an error means no record starts here — a torn or
// corrupt frame, or a payload that is not a record.
func scanRecord(buf []byte) (Record, int, error) {
	payload, n, err := scanFrame(buf)
	if err != nil || payload == nil {
		return Record{}, 0, err
	}
	r, err := unmarshalRecord(payload)
	return r, n, err
}

// frameRoom is the space left in front of a payload for what sealFrame
// writes there — `{"lsn":` with up to twenty digits, then the frame header
// (a length of at most eight digits, a space, eight hex digits, a newline)
// — and more than the header of any checkpoint needs.
const frameRoom = 48

// stageRecord appends frameRoom spare bytes and then r's body to dst.
func stageRecord(dst []byte, r Record) ([]byte, error) {
	return appendBody(append(dst, make([]byte, frameRoom)...), r)
}

// sealFrame completes the record whose body stageRecord put at buf[at:]:
// it writes the LSN in front of the body and then seals the frame. The
// frame is out[start:].
func sealFrame(buf []byte, at int, lsn uint64) (out []byte, start int) {
	i := putBefore(buf, at, lsn, 10)
	i -= copy(buf[i-7:], `{"lsn":`)
	return sealHeader(buf, i)
}

// sealHeader frames the payload buf[at:]: it writes the frame header
// backwards into the room in front of it and appends the terminator. The
// frame is out[start:].
func sealHeader(buf []byte, at int) (out []byte, start int) {
	payload := buf[at:]
	buf[at-1] = '\n'
	i := putBefore(buf, at-1, uint64(crc32.Checksum(payload, castagnoli)), 16)
	buf[i-1] = ' '
	i = putBefore(buf, i-1, uint64(len(payload)), 10)
	return append(buf, '\n'), i
}

// putBefore writes n in base so that it ends just before buf[i], and
// returns where it starts.
func putBefore(buf []byte, i int, n uint64, base int) int {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, base)
	return i - copy(buf[i-len(d):], d)
}

// ---- replication framing ----

// EncodeFrame appends the CRC-framed encoding of r to dst — byte-
// identical to what the log writes to a segment, so a shipped
// replication batch is re-checked against the same checksums on the
// follower.
func EncodeFrame(dst []byte, r Record) ([]byte, error) {
	buf, err := stageRecord(dst, r)
	if err != nil {
		return nil, err
	}
	buf, start := sealFrame(buf, len(dst)+frameRoom, r.LSN)
	// Move the frame down over the room it did not need.
	return buf[:len(dst)+copy(buf[len(dst):], buf[start:])], nil
}

// DecodeFrames strictly parses a buffer of complete frames (a shipped
// replication batch): every frame must be intact, checksum and all, and
// the buffer must end exactly at a frame boundary — a batch is never
// torn, so any malformation is corruption, not a partial write.
func DecodeFrames(buf []byte) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		r, n, err := scanRecord(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}
