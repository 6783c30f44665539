package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

// The reference the hand-written frame codec is held to is encoding/json
// itself over the same tagged structs: what WriteFrameMax and ReadFrameMax
// called before.

// exactCase reports whether no object key anywhere in the JSON document
// matches a Request or Response field only case-insensitively:
// encoding/json would bind such a key, the codec (case-sensitive by
// design) skips it — the one accepted difference.
func exactCase(data []byte) bool {
	var doc any
	if json.Unmarshal(data, &doc) != nil {
		return true
	}
	names := []string{"seq", "type", "tx", "obj", "op", "dump", "lsn", "read_only",
		"ok", "code", "err", "txid", "snap", "value", "state", "metrics", "repl"}
	var walk func(v any) bool
	walk = func(v any) bool {
		switch x := v.(type) {
		case []any:
			for _, e := range x {
				if !walk(e) {
					return false
				}
			}
		case map[string]any:
			for k, e := range x {
				for _, name := range names {
					if k != name && strings.EqualFold(k, name) {
						return false
					}
				}
				if !walk(e) {
					return false
				}
			}
		}
		return true
	}
	return walk(doc)
}

func sameDecode[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	gerr := decode(data, &got)
	werr := json.Unmarshal(data, &want)
	// A key in the wrong case is a member encoding/json binds (and may
	// then reject) and the codec skips: no verdict on such input.
	switch {
	case gerr == nil && werr != nil && exactCase(data):
		t.Fatalf("decoded %q to %+v, but encoding/json rejects it: %v", data, got, werr)
	case gerr == nil && !reflect.DeepEqual(got, want) && exactCase(data):
		t.Fatalf("decoded %q to %+v, encoding/json gives %+v", data, got, want)
	case gerr != nil && werr == nil && exactCase(data):
		t.Fatalf("decoding %q fails (%v) where encoding/json gives %+v", data, gerr, want)
	}
}

func sameEncode[T any](t *testing.T, v *T, enc func([]byte, *T) ([]byte, error)) {
	t.Helper()
	got, gerr := enc([]byte("x"), v)
	want, werr := json.Marshal(v)
	if (gerr == nil) != (werr == nil) || gerr == nil && string(got) != "x"+string(want) {
		t.Fatalf("appended %+v as %q, %v; encoding/json gives %q, %v", v, got, gerr, want, werr)
	}
}

// FuzzWireCodecMatchesEncodingJSON: every frame the appenders write is
// byte-identical to json.Marshal of the same struct (raw members that are
// not valid JSON fail on both sides); every payload the decoders accept
// encoding/json accepts with an equal result, and every exact-case-keyed
// payload encoding/json accepts the decoders accept.
func FuzzWireCodecMatchesEncodingJSON(f *testing.F) {
	op, _ := EncodeOp(adt.TblPut{K: "k<\xff", V: "v&  "})
	for _, seed := range []string{
		``, `null`, `{}`, `[]`, `{"seq":1,"type":"BEGIN"}`, `{"seq":2,"type":"BEGIN","read_only":true}`,
		`{"seq":3,"type":"WRITE","tx":1,"obj":"ctr","op":{"t":"ctr.add","a":1}}`, `{"seq":4,"type":"METRICS","dump":true}`,
		`{"seq":5,"type":"REPL_ACK","lsn":18446744073709551615}`, `{"seq":18446744073709551616}`, `{"seq":-1}`, `{"seq":1.0}`,
		`{"seq":7,"seq":null,"type":"x","type":"PING","op":null,"obj":"a","obj":"\ud800b"}`, `{"SEQ":1,"Type":"PING"}`, `{"sEq":-0}`,
		`{"unknown":{"a":[1,2,{"b":"}"}]},"seq":9}`, ` { "seq" : 1 , "type" : "PING" } `, `{"seq":1}{"seq":2}`, `{"seq":"1"}`,
		`{"seq":1,"ok":true,"tx":3,"txid":"T0.1","snap":7,"value":{"t":"i","v":5},"state":{"t":"ctr","v":5}}`,
		`{"seq":1,"ok":false,"code":"deadlock","err":"victim"}`, `{"code":"busy","err":"full"}`, `{"ok":null,"code":5}`,
		`{"seq":1,"ok":true,"metrics":{"requests":12,"commits":3},"metrics":{"aborts":1}}`, `{"ok":true,"metrics":null,"metrics":{"tx_commits":4}}`,
		`{"ok":true,"repl":{"kind":"batch","first_lsn":4,"count":1,"frames":"aGk=","states":{"a":{"t":"ctr","v":1}}}}`,
		`{"ok":true,"metrics":{"lock_waits":2,"repl_status":{"role":"leader","followers":[{"remote":"r","ack_lsn":3}]}}}`, `{"ok":true,"metrics":5}`, `{"ok":true,"repl":[]}`,
	} {
		f.Add([]byte(seed), uint64(7), "T0.1")
	}
	f.Add([]byte(op), uint64(1<<63), "q\"b\\s<>&  \x00\x1f\x7f\xff\xc3\x28é😀\b\f\n\r\t")
	f.Fuzz(func(t *testing.T, data []byte, n uint64, s string) {
		sameDecode(t, data, decodeRequest)
		sameDecode(t, data, decodeResponse)

		for _, raw := range []json.RawMessage{nil, {}, op, data} {
			sameEncode(t, &Request{Seq: n, Type: s, Tx: n >> 3, Obj: s, Op: raw, Dump: n%2 == 0, Lsn: n >> 5, ReadOnly: n%3 == 0}, appendRequest)
			sameEncode(t, &Request{Type: TRead, Op: raw}, appendRequest)
			sameEncode(t, &Response{Seq: n, OK: n%2 == 0, Code: s, Err: s, Tx: n >> 3, TxID: s, Snap: n >> 5, Value: raw, State: raw}, appendResponse)
			sameEncode(t, &Response{OK: true, Value: raw, Metrics: &Metrics{ServerCounters: obs.ServerCounters{Requests: n}, Snapshot: obs.Snapshot{TxCommits: n, ReplLag: 0.5},
				ReplStatus: &ReplStatus{Role: s, Followers: []ReplFollower{{Remote: s, AckLSN: n}}}}}, appendResponse)
			sameEncode(t, &Response{State: raw, Repl: &Repl{Kind: ReplBatch, FirstLSN: n, Frames: data}}, appendResponse)
		}
	})
}

// hotFrames is one transaction's worth of traffic: BEGIN, READ, WRITE,
// COMMIT and their replies.
func hotFrames(t testing.TB) ([]*Request, []*Response) {
	get, err := EncodeOp(adt.CtrGet{})
	if err != nil {
		t.Fatal(err)
	}
	add, _ := EncodeOp(adt.CtrAdd{Delta: 1})
	val, _ := EncodeValue(int64(1 << 40))
	return []*Request{{Seq: 1, Type: TBegin}, {Seq: 2, Type: TRead, Tx: 1, Obj: "ctr-00017", Op: get},
			{Seq: 3, Type: TWrite, Tx: 1, Obj: "ctr-00017", Op: add}, {Seq: 4, Type: TCommit, Tx: 1}},
		[]*Response{{Seq: 1, OK: true, Tx: 1, TxID: "T0.1234"}, {Seq: 2, OK: true, Value: val},
			{Seq: 3, OK: true, Value: val}, {Seq: 4, OK: true}}
}

// TestHotFrameAllocationBudget is the wire's share of the networked
// path's budget: a hot frame written and read back costs at most two
// allocations through the pointer-returning readers (the frame struct,
// and a string or none), at most one into a caller-owned struct, and
// none into structs whose hooks take the names, as the server and client
// read. The reflective codec spent 9.9.
func TestHotFrameAllocationBudget(t *testing.T) {
	reqs, resps := hotFrames(t)
	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	write := func() {
		for i := range reqs {
			if err := WriteFrame(bw, reqs[i]); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrameMax(bw, resps[i], MaxResponseSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := float64(len(reqs) + len(resps))
	perFrame := testing.AllocsPerRun(100, func() {
		write()
		for range reqs {
			if _, err := ReadRequest(br); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadResponse(br); err != nil {
				t.Fatal(err)
			}
		}
	}) / frames
	if perFrame > 2 {
		t.Errorf("ReadRequest/ReadResponse: %.2f allocs per hot frame, budget 2", perFrame)
	}
	var req Request
	var resp Response
	readInto := func() {
		write()
		for range reqs {
			if err := ReadFrame(br, &req); err != nil {
				t.Fatal(err)
			}
			if err := ReadFrameMax(br, &resp, MaxResponseSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	perFrame = testing.AllocsPerRun(100, readInto) / frames
	if perFrame > 1 {
		t.Errorf("ReadFrame into caller-owned structs: %.2f allocs per hot frame, budget 1", perFrame)
	}
	if resp.Seq != 4 || !resp.OK || req.Type != TCommit {
		t.Fatalf("last frames read back as %+v, %+v", req, resp)
	}

	// A server resolves the object to its registered string; a client
	// copies the txid where it keeps it.
	registered, resolved := "ctr-00017", 0
	req.ObjHook = func(b []byte) (string, bool) {
		if string(b) != registered {
			return "", false
		}
		resolved++
		return registered, true
	}
	var txid [16]byte
	var txidLen int
	resp.TxIDHook = func(b []byte) (string, bool) {
		txidLen = copy(txid[:], b)
		return "", true
	}
	perFrame = testing.AllocsPerRun(100, readInto) / frames
	if perFrame > 0 {
		t.Errorf("ReadFrame into structs with name hooks: %.2f allocs per hot frame, budget 0", perFrame)
	}
	if req.ObjHook == nil || resp.TxIDHook == nil {
		t.Fatal("decoding dropped a hook")
	}
	if resolved == 0 || string(txid[:txidLen]) != "T0.1234" {
		t.Fatalf("hooks resolved %d objects and took txid %q, want some and T0.1234", resolved, txid[:txidLen])
	}
}

// TestFrameLargerThanReaderBuffer: a frame that does not fit the reader
// (or the writer) takes the one-off path and decodes the same.
func TestFrameLargerThanReaderBuffer(t *testing.T) {
	big := strings.Repeat("k", 3*4096)
	val, err := EncodeValue(big)
	if err != nil {
		t.Fatal(err)
	}
	var pipe bytes.Buffer
	bw := bufio.NewWriterSize(&pipe, 64)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := WriteFrameMax(bw, &Response{Seq: seq, OK: true, Value: val}, MaxResponseSize); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(bw, &Request{Seq: seq, Type: TPing}); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReaderSize(&pipe, 64)
	for seq := uint64(1); seq <= 3; seq++ {
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := adt.DecodeValue(resp.Value); err != nil || v != big || resp.Seq != seq {
			t.Fatalf("big frame %d came back as seq %d, %v", seq, resp.Seq, err)
		}
		if req, err := ReadRequest(br); err != nil || req.Seq != seq || req.Type != TPing {
			t.Fatalf("frame after big frame %d: %+v, %v", seq, req, err)
		}
	}
	if err := WriteFrame(bw, &Request{Type: strings.Repeat("x", MaxFrameSize)}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize frame written: %v", err)
	}
	if err := WriteFrame(bw, Request{Type: TPing}); err == nil {
		t.Fatal("WriteFrame accepted a Request by value")
	}
}

// endless yields its byte forever.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

// counting counts what is read through it.
type counting struct {
	r io.Reader
	n int
}

func (c *counting) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestFrameHeaderIsBounded: the length line is bounded before it is
// parsed. A peer that streams digits and never sends the newline gets an
// error after at most one reader buffer, not memory proportional to what
// it sent; and the header grammar is one to eight ASCII digits, nothing
// strconv.Atoi or TrimSpace would have let through.
func TestFrameHeaderIsBounded(t *testing.T) {
	src := &counting{r: endless('1')}
	br := bufio.NewReaderSize(src, 4096)
	var req Request
	if err := ReadFrame(br, &req); err == nil || err == io.EOF {
		t.Fatalf("endless header: %v", err)
	}
	if src.n > br.Size() {
		t.Fatalf("endless header consumed %d bytes, reader buffer is %d", src.n, br.Size())
	}
	for _, raw := range []string{"+2\n{}\n", " 2\n{}\n", "2 \n{}\n", "2\r\n{}\n", "\n{}\n", "0x2\n{}\n", "123456789\n", "١\n{}\n"} {
		if err := ReadFrame(bufio.NewReader(strings.NewReader(raw)), &req); err == nil || !strings.Contains(err.Error(), "bad frame length") {
			t.Errorf("header of %q: %v", raw, err)
		}
	}
	for _, raw := range []string{"2\n{}\n", "02\n{}\n", "00000002\n{}\n"} {
		if err := ReadFrame(bufio.NewReader(strings.NewReader(raw)), &req); err != nil {
			t.Errorf("header of %q: %v", raw, err)
		}
	}
}
