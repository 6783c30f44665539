// Package wire defines the network protocol spoken between the nestedtx
// transaction server (internal/server) and its clients (package client).
//
// The protocol is a length-prefixed newline-JSON framing: every frame is
//
//	<decimal byte length of payload> '\n' <payload JSON> '\n'
//
// and every payload is a single JSON object — a [Request] on the
// client→server direction, a [Response] on the way back. The explicit
// length prefix bounds reads (see [MaxFrameSize]) and lets either end
// skip a frame it cannot parse; the trailing newline keeps captures
// greppable and makes the stream self-synchronising for humans.
//
// Requests and responses are matched by sequence number. The server
// answers every request with exactly one response; requests on one
// connection are processed in order. Operations, values and object
// states cross the wire in the tagged encoding of internal/adt's codec,
// so only the library's abstract data types are remotely accessible —
// the same restriction the schedule-persistence tools have.
//
// Request and Response frames are written and read by a hand-written
// codec on internal/jscan, byte-compatible with encoding/json except that
// keys are case-sensitive; only the cold nested payloads (metrics, repl)
// are delegated to encoding/json. A frame that fits
// the bufio.Reader is decoded where it lies: Op, Value and State of a
// decoded frame alias the reader's buffer and are valid until the next
// read from it.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"nestedtx/internal/adt"
	"nestedtx/internal/jscan"
	"nestedtx/internal/obs"
)

// MaxFrameSize bounds a single request frame's payload; frames
// advertising more are rejected without reading them.
const MaxFrameSize = 1 << 20

// MaxResponseSize bounds a single response frame's payload. Responses get
// a higher ceiling than requests because a STATE snapshot of a large
// object (a Table with many keys, say) can legitimately exceed the
// request limit; the server answers anything bigger still with a
// [CodeTooLarge] error instead of killing the session, and clients read
// response frames with this limit.
const MaxResponseSize = 8 << 20

// Request types. Each carries the fields noted; unused fields are
// omitted from the JSON.
const (
	TBegin   = "BEGIN"   // open a top-level transaction → Tx handle
	TSub     = "SUB"     // Tx: open a subtransaction of handle Tx → new handle
	TRead    = "READ"    // Tx, Obj, Op: read-only access
	TWrite   = "WRITE"   // Tx, Obj, Op: mutating access
	TCommit  = "COMMIT"  // Tx: commit the handle
	TAbort   = "ABORT"   // Tx: abort the handle
	TState   = "STATE"   // Obj: committed-to-root state snapshot
	TMetrics = "METRICS" // every counter, histogram and gauge, the replication position; Dump adds the trace ring
	TPing    = "PING"    // liveness / round-trip probe

	// Replication verbs (internal/repl). REPL_HELLO switches the
	// connection out of request/response into a push stream: the leader
	// answers with a hello [Repl] payload, then pushes snapshot/batch
	// frames while reading REPL_ACK requests (which get no responses).
	TReplHello = "REPL_HELLO" // Lsn: follower's resume point (its log's NextLSN)
	TReplAck   = "REPL_ACK"   // Lsn: follower's durable position (streaming mode only)
	TPromote   = "PROMOTE"    // follower only: stop following, recover, verify, accept writes
)

// Response error codes (Response.Code when OK is false).
const (
	CodeDeadlock   = "deadlock"    // the transaction was a deadlock victim; abort and retry
	CodeAborted    = "aborted"     // the transaction is (already) aborted
	CodeTimeout    = "timeout"     // the per-request deadline expired; the transaction was aborted
	CodeBusy       = "busy"        // connection limit reached; try another server or later
	CodeShutdown   = "shutdown"    // the server is draining
	CodeUnknownTx  = "unknown_tx"  // no such transaction handle on this session
	CodeBadRequest = "bad_request" // malformed or ill-sequenced request
	CodeTooLarge   = "too_large"   // the response would exceed MaxResponseSize; session stays usable
	CodeInternal   = "internal"    // server-side failure
	CodeReadOnly   = "read_only"   // this server is a replication follower; writes go to its leader
)

// Request is one client→server frame.
type Request struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Tx   uint64          `json:"tx,omitempty"`   // transaction handle (SUB/READ/WRITE/COMMIT/ABORT)
	Obj  string          `json:"obj,omitempty"`  // object name (READ/WRITE/STATE)
	Op   json.RawMessage `json:"op,omitempty"`   // adt-encoded operation (READ/WRITE)
	Dump bool            `json:"dump,omitempty"` // METRICS: include the event trace ring
	Lsn  uint64          `json:"lsn,omitempty"`  // REPL_HELLO: resume point; REPL_ACK: durable position
	// ReadOnly on BEGIN opens a read-only snapshot transaction instead
	// of a locking one: it pins the server's current commit sequence
	// number and serves READs from committed versions without taking
	// locks. Followers accept it too (their snapshot store is fed by
	// the replication apply loop). WRITE and SUB on such a handle fail.
	ReadOnly bool `json:"read_only,omitempty"`

	// ObjHook, when non-nil, is handed Obj's bytes as a frame is decoded
	// into this Request, in place of a copy: Obj is the string it returns
	// with ok, and a copy of the bytes when it reports !ok. The bytes
	// alias the frame. Decoding keeps the hook; encoding ignores it.
	ObjHook func(b []byte) (string, bool) `json:"-"`
}

// Response is one server→client frame.
type Response struct {
	Seq     uint64          `json:"seq"`
	OK      bool            `json:"ok"`
	Code    string          `json:"code,omitempty"`
	Err     string          `json:"err,omitempty"`
	Tx      uint64          `json:"tx,omitempty"`      // new handle (BEGIN/SUB)
	TxID    string          `json:"txid,omitempty"`    // paper-tree name, e.g. "T0.3.1" (BEGIN/SUB); "S<n>" for snapshots
	Snap    uint64          `json:"snap,omitempty"`    // pinned commit seqno (read-only BEGIN)
	Value   json.RawMessage `json:"value,omitempty"`   // adt-encoded access result (READ/WRITE)
	State   json.RawMessage `json:"state,omitempty"`   // adt-encoded object state (STATE)
	Metrics *Metrics        `json:"metrics,omitempty"` // METRICS
	Repl    *Repl           `json:"repl,omitempty"`    // REPL_HELLO reply and pushed stream frames

	// TxIDHook is ObjHook for TxID: a client that copies the bytes where
	// it wants them returns ok, and TxID is then what it returned.
	TxIDHook func(b []byte) (string, bool) `json:"-"`
}

// Repl stream-frame kinds (Repl.Kind).
const (
	ReplHello    = "hello"    // REPL_HELLO reply: the negotiated resume point
	ReplSnapshot = "snapshot" // full-state install: the follower is below the leader's low-water mark
	ReplBatch    = "batch"    // a run of checksummed log records (Count 0 = heartbeat)
)

// Repl is one leader→follower replication stream frame, carried in a
// Response on a connection adopted via REPL_HELLO. Record payloads cross
// the wire in the WAL's own CRC32C framing (Frames holds concatenated
// frames, base64-coded by JSON), so the follower re-verifies every
// checksum before appending — a bit flipped in transit is caught exactly
// like a bit flipped on disk. A snapshot is the leader's checkpoint file,
// itself one such frame, sent in pieces.
type Repl struct {
	Kind       string `json:"kind"`
	NextLSN    uint64 `json:"next_lsn,omitempty"`    // hello: resume point; snapshot: checkpoint LSN
	DurableLSN uint64 `json:"durable_lsn,omitempty"` // leader's durable mark at send time
	FirstLSN   uint64 `json:"first_lsn,omitempty"`   // batch: LSN of the first record in Frames
	Count      int    `json:"count,omitempty"`       // batch: records in Frames (0 = heartbeat); snapshot: bytes in the file
	Frames     []byte `json:"frames,omitempty"`      // batch: concatenated CRC-framed records; snapshot: a piece of the file
}

// ReplFollower is one follower's position as the leader sees it.
type ReplFollower struct {
	Remote     string  `json:"remote"`
	AckLSN     uint64  `json:"ack_lsn"`     // all records below this are durable on the follower
	LagRecords uint64  `json:"lag_records"` // leader durable LSN − AckLSN
	LagSeconds float64 `json:"lag_seconds"` // time since the follower last made progress (0 when caught up)
}

// ReplStatus is the replication block of the METRICS payload. Role
// decides which half is meaningful: a leader reports its log marks and
// per-follower lag, a follower reports its own applied position against
// the leader's durable mark.
type ReplStatus struct {
	Role          string `json:"role"` // "leader" | "follower"
	NextLSN       uint64 `json:"next_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`

	Followers []ReplFollower `json:"followers,omitempty"` // leader

	Leader           string  `json:"leader,omitempty"` // follower: leader address
	LeaderDurableLSN uint64  `json:"leader_durable_lsn,omitempty"`
	LagRecords       uint64  `json:"lag_records,omitempty"`
	LagSeconds       float64 `json:"lag_seconds,omitempty"`
	Connected        bool    `json:"connected,omitempty"` // follower: stream currently up
}

// Metrics is the METRICS payload, the one status answer a node gives:
// the server's own counters, the lock manager's, the registry snapshot
// (latency distributions, transaction outcomes, the victim breakdown by
// cause, contention gauges), the replication position (absent on a node
// without replication) and, when the request set Dump, the most recent
// trace entries (oldest first, capped so the frame stays under
// MaxResponseSize). The embedded blocks are declared, keys and all, in
// internal/obs; their JSON names are disjoint, so they share one object.
//
// Consistency contract: each block is its own snapshot, taken in the
// order above and each internally consistent (see [obs.ServerCounters]);
// a later block may be slightly ahead of an earlier one.
type Metrics struct {
	obs.ServerCounters
	obs.LockStats
	obs.Snapshot
	ReplStatus   *ReplStatus      `json:"repl_status,omitempty"`
	TraceDropped uint64           `json:"trace_dropped,omitempty"` // ring overwrites since start
	Trace        []obs.TraceEntry `json:"trace,omitempty"`
}

// EncodeOp wraps the adt codec for request building.
func EncodeOp(op adt.Op) (json.RawMessage, error) { return adt.EncodeOp(op) }

// EncodeValue wraps the adt codec for response building.
func EncodeValue(v adt.Value) (json.RawMessage, error) { return adt.EncodeValue(v) }

// enc builds one frame's JSON. Its methods write a member — key holds
// the comma, the name and the colon — only when the value is non-empty:
// encoding/json's omitempty.
type enc struct {
	buf []byte
	err error
}

func (e *enc) uint(key string, n uint64) {
	if n != 0 {
		e.buf = strconv.AppendUint(append(e.buf, key...), n, 10)
	}
}

func (e *enc) str(key, s string) {
	if s != "" {
		e.buf = jscan.AppendString(append(e.buf, key...), s)
	}
}

func (e *enc) flag(key string, b bool) {
	if b {
		e.buf = append(append(e.buf, key...), "true"...)
	}
}

func (e *enc) raw(key string, raw json.RawMessage) {
	if len(raw) > 0 && e.err == nil {
		e.buf, e.err = jscan.AppendCompact(append(e.buf, key...), raw)
	}
}

// cold writes a nested payload through encoding/json.
func cold[T any](e *enc, key string, p *T) {
	if p != nil && e.err == nil {
		var nested []byte
		nested, e.err = json.Marshal(p)
		e.buf = append(append(e.buf, key...), nested...)
	}
}

func appendRequest(dst []byte, r *Request) ([]byte, error) {
	e := enc{buf: strconv.AppendUint(append(dst, `{"seq":`...), r.Seq, 10)}
	e.buf = jscan.AppendString(append(e.buf, `,"type":`...), r.Type)
	e.uint(`,"tx":`, r.Tx)
	e.str(`,"obj":`, r.Obj)
	e.raw(`,"op":`, r.Op)
	e.flag(`,"dump":`, r.Dump)
	e.uint(`,"lsn":`, r.Lsn)
	e.flag(`,"read_only":`, r.ReadOnly)
	return append(e.buf, '}'), e.err
}

func appendResponse(dst []byte, r *Response) ([]byte, error) {
	e := enc{buf: strconv.AppendUint(append(dst, `{"seq":`...), r.Seq, 10)}
	e.buf = strconv.AppendBool(append(e.buf, `,"ok":`...), r.OK)
	e.str(`,"code":`, r.Code)
	e.str(`,"err":`, r.Err)
	e.uint(`,"tx":`, r.Tx)
	e.str(`,"txid":`, r.TxID)
	e.uint(`,"snap":`, r.Snap)
	e.raw(`,"value":`, r.Value)
	e.raw(`,"state":`, r.State)
	cold(&e, `,"metrics":`, r.Metrics)
	cold(&e, `,"repl":`, r.Repl)
	return append(e.buf, '}'), e.err
}

// vocabulary is every request type and response code: decoding one of
// them yields the constant, not a fresh string.
var vocabulary = [...]string{TBegin, TSub, TRead, TWrite, TCommit, TAbort, TState, TMetrics, TPing,
	TReplHello, TReplAck, TPromote, CodeDeadlock, CodeAborted, CodeTimeout, CodeBusy, CodeShutdown,
	CodeUnknownTx, CodeBadRequest, CodeTooLarge, CodeInternal, CodeReadOnly}

// word reads a string that is usually one of vocabulary.
func word(s *jscan.Scanner, dst *string) error {
	var b []byte
	err := s.Bytes(&b)
	for _, w := range vocabulary {
		if string(b) == w && b != nil {
			*dst = w
			return err
		}
	}
	if b != nil {
		*dst = string(b)
	}
	return err
}

// hooked reads a string member through hook when there is one (see
// Request.ObjHook), and as a plain string otherwise.
func hooked(s *jscan.Scanner, dst *string, hook func([]byte) (string, bool)) error {
	if hook == nil {
		return s.String(dst)
	}
	var b []byte
	err := s.Bytes(&b)
	if b != nil {
		name, ok := hook(b)
		if !ok {
			name = string(b)
		}
		*dst = name
	}
	return err
}

// decodeCold reads a nested payload through encoding/json, into the value
// an earlier duplicate of the key left, as encoding/json would.
func decodeCold[T any](s *jscan.Scanner, dst **T) error {
	var raw []byte
	if err := s.Raw(&raw); err != nil {
		return err
	}
	p := *dst
	err := json.Unmarshal(raw, &p)
	*dst = p
	return err
}

func decodeRequest(data []byte, r *Request) error {
	*r = Request{ObjHook: r.ObjHook}
	s := jscan.New(data)
	err := s.Object(func(key []byte) error {
		switch string(key) {
		case "seq":
			return s.Uint64(&r.Seq)
		case "type":
			return word(&s, &r.Type)
		case "tx":
			return s.Uint64(&r.Tx)
		case "obj":
			return hooked(&s, &r.Obj, r.ObjHook)
		case "op":
			return s.Raw((*[]byte)(&r.Op))
		case "dump":
			return s.Bool(&r.Dump)
		case "lsn":
			return s.Uint64(&r.Lsn)
		case "read_only":
			return s.Bool(&r.ReadOnly)
		}
		return s.Skip()
	})
	if err == nil {
		err = s.End()
	}
	return err
}

func decodeResponse(data []byte, r *Response) error {
	*r = Response{TxIDHook: r.TxIDHook}
	s := jscan.New(data)
	err := s.Object(func(key []byte) error {
		switch string(key) {
		case "seq":
			return s.Uint64(&r.Seq)
		case "ok":
			return s.Bool(&r.OK)
		case "code":
			return word(&s, &r.Code)
		case "err":
			return s.String(&r.Err)
		case "tx":
			return s.Uint64(&r.Tx)
		case "txid":
			return hooked(&s, &r.TxID, r.TxIDHook)
		case "snap":
			return s.Uint64(&r.Snap)
		case "value":
			return s.Raw((*[]byte)(&r.Value))
		case "state":
			return s.Raw((*[]byte)(&r.State))
		case "metrics":
			return decodeCold(&s, &r.Metrics)
		case "repl":
			return decodeCold(&s, &r.Repl)
		}
		return s.Skip()
	})
	if err == nil {
		err = s.End()
	}
	return err
}

// errNotFrame does not name v's type: formatting v would make every
// caller's frame struct escape to the heap.
var errNotFrame = errors.New("value is neither *Request nor *Response")

// WriteFrame writes v, a *Request or a *Response, as one length-prefixed
// frame and flushes, applying the request-side limit. Servers writing
// responses use [WriteFrameMax] with [MaxResponseSize].
func WriteFrame(w *bufio.Writer, v any) error {
	return WriteFrameMax(w, v, MaxFrameSize)
}

// headerRoom is the space a frame's header can take: eight digits and a
// newline.
const headerRoom = 9

// WriteFrameMax writes v as one length-prefixed frame and flushes,
// rejecting payloads over max bytes. The frame is built in w's own
// buffer when it fits there, so writing allocates only for one that
// does not.
func WriteFrameMax(w *bufio.Writer, v any, max int) error {
	buf := append(w.AvailableBuffer(), "         "[:headerRoom]...)
	var err error
	switch x := v.(type) {
	case *Request:
		buf, err = appendRequest(buf, x)
	case *Response:
		buf, err = appendResponse(buf, x)
	default:
		err = errNotFrame
	}
	if err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	n := len(buf) - headerRoom
	if n > max || n > maxFrameLen {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	buf = append(buf, '\n')
	// The header goes right-aligned into the room left before the payload.
	var digits [headerRoom]byte
	header := append(strconv.AppendInt(digits[:0], int64(n), 10), '\n')
	start := headerRoom - copy(buf[headerRoom-len(header):], header)
	if _, err := w.Write(buf[start:]); err != nil {
		return err
	}
	return w.Flush()
}

// ReadFrame reads one frame's payload into v, a *Request or a *Response,
// applying the request-side limit. It returns io.EOF (exactly) on a clean
// end of stream before any byte of a frame. Clients reading responses use
// [ReadFrameMax] with [MaxResponseSize].
func ReadFrame(r *bufio.Reader, v any) error {
	return ReadFrameMax(r, v, MaxFrameSize)
}

// maxFrameLen is the largest payload length the header grammar (one to
// eight ASCII digits) can state.
const maxFrameLen = 99999999

// readHeader reads a frame's length line. The line is bounded before it
// is parsed: a peer that never sends the newline costs at most one
// buffer of r, not memory proportional to what it streams.
func readHeader(r *bufio.Reader) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: read frame header: %w", err)
	}
	n, digits := 0, line[:len(line)-1]
	ok := len(digits) >= 1 && len(digits) <= 8
	for _, c := range digits {
		ok = ok && '0' <= c && c <= '9'
		n = n*10 + int(c-'0')
	}
	if !ok {
		return 0, fmt.Errorf("wire: bad frame length %.20q", digits)
	}
	return n, nil
}

// ReadFrameMax reads one frame's payload into v, rejecting frames that
// advertise more than max bytes without reading their body. A frame that
// fits r's buffer is decoded in place (see the package comment for what
// then aliases it); a larger one gets a buffer of its own, dropped with
// the frame, so a connection never retains its largest frame.
func ReadFrameMax(r *bufio.Reader, v any, max int) error {
	n, err := readHeader(r)
	if err != nil {
		return err
	}
	if n > max {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	var buf []byte // payload + trailing newline
	if n+1 <= r.Size() {
		buf, err = r.Peek(n + 1)
		r.Discard(len(buf)) // the bytes stay in place until the next read
	} else {
		buf = make([]byte, n+1)
		_, err = io.ReadFull(r, buf)
	}
	if err != nil {
		return fmt.Errorf("wire: read frame payload: %w", err)
	}
	if buf[n] != '\n' {
		return fmt.Errorf("wire: frame missing trailing newline")
	}
	switch x := v.(type) {
	case *Request:
		err = decodeRequest(buf[:n], x)
	case *Response:
		err = decodeResponse(buf[:n], x)
	default:
		err = errNotFrame
	}
	if err != nil {
		return fmt.Errorf("wire: unmarshal frame: %w", err)
	}
	return nil
}

// ReadRequest reads one Request frame.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := ReadFrame(r, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse reads one Response frame (response-side size limit).
func ReadResponse(r *bufio.Reader) (*Response, error) {
	resp := new(Response)
	if err := ReadFrameMax(r, resp, MaxResponseSize); err != nil {
		return nil, err
	}
	return resp, nil
}
