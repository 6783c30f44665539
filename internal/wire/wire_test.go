package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

func roundTripReq(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(bufio.NewWriter(&buf), req); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	op, err := EncodeOp(adt.CtrAdd{Delta: -3})
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Seq: 7, Type: TWrite, Tx: 2, Obj: "ctr", Op: op}
	got := roundTripReq(t, req)
	if got.Seq != 7 || got.Type != TWrite || got.Tx != 2 || got.Obj != "ctr" {
		t.Fatalf("round trip mangled request: %+v", got)
	}
	dop, err := adt.DecodeOp(got.Op)
	if err != nil {
		t.Fatal(err)
	}
	if dop.(adt.CtrAdd).Delta != -3 {
		t.Fatalf("op mangled: %+v", dop)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	val, err := EncodeValue(adt.AcctResult{OK: true, Balance: 41})
	if err != nil {
		t.Fatal(err)
	}
	st, err := adt.EncodeState(adt.Account{Balance: 41})
	if err != nil {
		t.Fatal(err)
	}
	resp := &Response{Seq: 9, OK: true, Tx: 3, TxID: "T0.1.2", Value: val, State: st,
		Metrics: &Metrics{ServerCounters: obs.ServerCounters{Requests: 12}, LockStats: obs.LockStats{Deadlocks: 1},
			Snapshot: obs.Snapshot{TxCommits: 5}, ReplStatus: &ReplStatus{Role: "leader"}}}
	var buf bytes.Buffer
	if err := WriteFrame(bufio.NewWriter(&buf), resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || got.Seq != 9 || got.TxID != "T0.1.2" || got.Metrics.Requests != 12 ||
		got.Metrics.Deadlocks != 1 || got.Metrics.TxCommits != 5 || got.Metrics.ReplStatus.Role != "leader" {
		t.Fatalf("round trip mangled response: %+v", got)
	}
	v, err := adt.DecodeValue(got.Value)
	if err != nil {
		t.Fatal(err)
	}
	if v.(adt.AcctResult).Balance != 41 {
		t.Fatalf("value mangled: %+v", v)
	}
	s, err := adt.DecodeState(got.State)
	if err != nil {
		t.Fatal(err)
	}
	if s.(adt.Account).Balance != 41 {
		t.Fatalf("state mangled: %+v", s)
	}
}

func TestFrameStreaming(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := uint64(1); i <= 5; i++ {
		if err := WriteFrame(w, &Request{Seq: i, Type: TPing}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := uint64(1); i <= 5; i++ {
		req, err := ReadRequest(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.Seq != i {
			t.Fatalf("frame %d: got seq %d", i, req.Seq)
		}
	}
	if _, err := ReadRequest(r); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
}

func TestFrameRejectsOversizeAndGarbage(t *testing.T) {
	var req Request
	if err := ReadFrame(bufio.NewReader(strings.NewReader("99999999\n")), &req); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize frame not rejected: %v", err)
	}
	if err := ReadFrame(bufio.NewReader(strings.NewReader("nope\n")), &req); err == nil {
		t.Fatal("garbage length accepted")
	}
	if err := ReadFrame(bufio.NewReader(strings.NewReader("2\n{}X")), &req); err == nil ||
		!strings.Contains(err.Error(), "newline") {
		t.Fatalf("missing trailing newline accepted: %v", err)
	}
	if err := ReadFrame(bufio.NewReader(strings.NewReader("4\n{}\n")), &req); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestFrameTruncationAndGarbage covers the exact mid-frame failure
// shapes a cut or corrupted connection produces; none may be mistaken
// for a clean EOF (only a stream ending *before any byte of a frame*
// is io.EOF — everything else must surface as an error, so the client
// can poison the connection rather than resynchronise on garbage).
func TestFrameTruncationAndGarbage(t *testing.T) {
	cases := []struct {
		name  string
		raw   string
		frag  string // expected error substring; "" = any non-nil, non-EOF error
		isEOF bool
	}{
		{"clean EOF before any byte", "", "", true},
		{"EOF mid-header", "12", "read frame header", false},
		{"negative length", "-5\nhello\n", "bad frame length", false},
		{"non-numeric header", "twelve\n", "bad frame length", false},
		{"header garbage binary", "\x00\x01\x02\n", "bad frame length", false},
		{"short payload then EOF", "50\n{\"seq\":1}", "read frame payload", false},
		{"payload missing trailing newline", "9\n{\"seq\":1}X", "trailing newline", false},
		{"valid length, unparsable json", "3\n{\"s\n", "unmarshal", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp Response
			err := ReadFrame(bufio.NewReader(strings.NewReader(tc.raw)), &resp)
			if tc.isEOF {
				if err != io.EOF {
					t.Fatalf("got %v, want exactly io.EOF", err)
				}
				return
			}
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if errors.Is(err, io.EOF) && err == io.EOF {
				t.Fatalf("mid-frame failure reported as clean EOF: %v", err)
			}
			if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}
