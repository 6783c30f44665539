package adt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// exactCase reports whether no object key anywhere in the JSON document
// matches one of names only case-insensitively. encoding/json would bind
// such a key to the field; the hand-written codec, whose keys are
// case-sensitive by design, skips it — the one accepted difference.
func exactCase(data []byte, names ...string) bool {
	var doc any
	if json.Unmarshal(data, &doc) != nil {
		return true
	}
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

// sameDecode checks one decoder against its reference on one input: what
// the live decoder accepts the reference accepts with an equal result,
// and what the reference accepts with exact-case keys the live one does.
func sameDecode[T any](t *testing.T, what string, data []byte, live, ref func([]byte) (T, error)) {
	t.Helper()
	got, gerr := live(data)
	want, werr := ref(data)
	switch {
	case gerr == nil && werr != nil && exactCase(data, "t", "v", "a", "k", "OK", "Balance", "N"):
		t.Fatalf("%s(%q) = %#v, but encoding/json rejects it: %v", what, data, got, werr)
	case gerr == nil && !reflect.DeepEqual(got, want) && exactCase(data, "t", "v", "a", "k", "OK", "Balance", "N"):
		t.Fatalf("%s(%q) = %#v, encoding/json gives %#v", what, data, got, want)
	case gerr != nil && werr == nil && exactCase(data, "t", "v", "a", "k", "OK", "Balance", "N"):
		t.Fatalf("%s(%q) fails (%v) where encoding/json gives %#v", what, data, gerr, want)
	}
}

// FuzzAdtCodecMatchesEncodingJSON holds the hand-written codec to the
// encoding/json one it replaced (codec_ref_test.go). Encoding: every op,
// value kind and state kind built from the fuzzed scalars appends exactly
// the reference's bytes. Decoding: see sameDecode.
func FuzzAdtCodecMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "q\"b\\s<>&  \x00\x1f\x7f\xff\xc3\x28é😀\b\f\n\r\t"} {
		for _, n := range []int64{0, -1, 255, 256, math.MaxInt64, math.MinInt64} {
			f.Add([]byte(`{"t":"i","v":1}`), n, s)
		}
	}
	for _, seed := range []string{
		`{"t":"nil"}`, `{"t":"nil","v":[1,{"x":"}"}]}`, `{"t":"i"}`, `{"t":"i","v":null}`, `{"v":-5,"t":"i"}`, `{"t":"i","v":1.0}`,
		`{"t":"b","v":true}`, `{"t":"s","v":"aé😀\ud83d"}`, `{"t":"acct","v":{"OK":true,"Balance":41,"ok":false}}`,
		`{"t":"take","v":{"N":3,"OK":true,"N":4}}`, `{"t":"acct","v":null}`, `null`, ` {"t" : "i" , "v" : 7 } `, `{"t":"i","v":7}x`,
		`{"T":"i","v":7}`, `{"t":"nil","V":}`, `{"t":"nil","T":5}`, `{"t":"i","t":"b","v":true}`, `{"t":"i","v":7}`,
		`{"t":"reg.read","a":5}`, `{"t":"reg.write","a":{"t":"s","v":"x"}}`, `{"t":"ctr.add","a":-3}`, `{"t":"ctr.add"}`,
		`{"t":"set.insert","a":9223372036854775808}`, `{"t":"tbl.get","a":"k"}`, `{"t":"tbl.put","a":{"k":"k","v":{"t":"b","v":false}}}`,
		`{"t":"tbl.put","a":{"k":"k"}}`, `{"t":"tbl.put","a":null}`, `{"t":"q.enqueue","a":{"t":"nil"}}`, `{"t":"zzz"}`,
		`{"t":"reg","v":{"t":"i","v":1}}`, `{"t":"ctr","v":5}`, `{"t":"acct","v":5}`, `{"t":"set","v":[3,1,null,3]}`, `{"t":"set","v":null}`,
		`{"t":"queue","v":[{"t":"i","v":1},{"t":"nil"}]}`, `{"t":"queue","v":[null]}`, `{"t":"queue"}`,
		`{"t":"tbl","v":{"a":{"t":"i","v":1},"a":{"t":"s","v":"last"},"b":{"t":"nil"}}}`, `{"t":"tbl","v":{}}`, `{"t":"tbl","v":[]}`,
		`{"t":"tbl","v":{"a":{},"a":{"t":"nil"}}}`,
	} {
		f.Add([]byte(seed), int64(1), "k")
	}
	f.Fuzz(func(t *testing.T, data []byte, n int64, s string) {
		values := []Value{nil, n, n%2 == 0, s, AcctResult{OK: n%2 == 0, Balance: n}, TakeResult{OK: n%3 == 0, N: n}}
		for _, v := range values {
			got, gerr := AppendValue([]byte("x"), v)
			want, werr := refEncodeValue(v)
			if gerr != nil || werr != nil || string(got) != "x"+string(want) {
				t.Fatalf("AppendValue(%#v) = %q, %v; encoding/json = %q, %v", v, got, gerr, want, werr)
			}
		}
		ops := []Op{RegRead{}, CtrGet{}, CtrAdd{n}, CtrTake{n}, AcctBalance{}, AcctDeposit{n}, AcctWithdraw{n},
			SetInsert{n}, SetRemove{n}, SetContains{n}, SetSize{}, QDequeue{}, QPeek{}, QLen{}, TblGet{s}, TblDelete{s}}
		states := []State{Counter{n}, Account{n}, NewIntSet(), NewIntSet(n), NewQueue(), NewQueue(values...), NewTable(nil)}
		tbl := map[string]Value{}
		for i, v := range values {
			ops = append(ops, RegWrite{v}, QEnqueue{v}, TblPut{s, v})
			states = append(states, NewRegister(v))
			tbl[s[:i*len(s)/len(values)]+string(rune('a'+i))] = v
		}
		states = append(states, NewTable(tbl))
		for _, op := range ops {
			got, gerr := AppendOp([]byte("x"), op)
			want, werr := refEncodeOp(op)
			if gerr != nil || werr != nil || string(got) != "x"+string(want) {
				t.Fatalf("AppendOp(%#v) = %q, %v; encoding/json = %q, %v", op, got, gerr, want, werr)
			}
			back, err := DecodeOp(want)
			if err != nil || !reflect.DeepEqual(back, mustOp(t, want)) {
				t.Fatalf("DecodeOp(%q) = %#v, %v", want, back, err)
			}
		}
		for _, st := range states {
			got, gerr := AppendState([]byte("x"), st)
			want, werr := refEncodeState(st)
			if gerr != nil || werr != nil || string(got) != "x"+string(want) {
				t.Fatalf("AppendState(%#v) = %q, %v; encoding/json = %q, %v", st, got, gerr, want, werr)
			}
		}
		// A set of several members encodes in map order, which no two
		// calls share: compare what the bytes decode to.
		set := NewIntSet(n, n+1, n/2, 7)
		enc, err := AppendState(nil, set)
		if back, derr := refDecodeState(enc); err != nil || derr != nil || !reflect.DeepEqual(back, set) {
			t.Fatalf("AppendState(%v) = %q, %v; reference decodes it to %v, %v", set, enc, err, back, derr)
		}
		if !bytes.HasPrefix(enc, []byte(`{"t":"set","v":[`)) || bytes.Contains(enc, []byte(",]")) {
			t.Fatalf("AppendState(%v) = %q", set, enc)
		}

		sameDecode(t, "DecodeValue", data, DecodeValue, refDecodeValue)
		sameDecode(t, "DecodeOp", data, DecodeOp, refDecodeOp)
		sameDecode(t, "DecodeState", data, DecodeState, refDecodeState)
	})
}

func mustOp(t *testing.T, enc []byte) Op {
	t.Helper()
	op, err := refDecodeOp(enc)
	if err != nil {
		t.Fatalf("reference cannot decode %q: %v", enc, err)
	}
	return op
}

// TestAppendersReportUnencodable: an appender fails on a value outside
// the library vocabulary and the encoders return nothing with the error.
func TestAppendersReportUnencodable(t *testing.T) {
	type custom struct{ X int }
	if enc, err := EncodeState(NewTable(map[string]Value{"a": int64(1), "b": custom{}})); err == nil || enc != nil {
		t.Fatalf("EncodeState = %q, %v", enc, err)
	}
	if enc, err := AppendOp([]byte("keep"), TblPut{K: "k", V: custom{}}); err == nil || !bytes.HasPrefix(enc, []byte("keep")) {
		t.Fatalf("AppendOp = %q, %v", enc, err)
	}
}

// TestCodecAllocations pins the op path's share of a frame: encoding an
// op or a value into a caller's buffer allocates nothing, and decoding
// one allocates at most the box its result is returned in.
func TestCodecAllocations(t *testing.T) {
	var buf [64]byte
	op, val := Op(CtrAdd{Delta: 1 << 40}), Value(int64(1<<40))
	encOp, _ := EncodeOp(op)
	encVal, _ := EncodeValue(val)
	encBare, _ := EncodeOp(CtrGet{})
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AppendOp", 0, func() { AppendOp(buf[:0], op) }},
		{"AppendValue", 0, func() { AppendValue(buf[:0], val) }},
		{"DecodeOp", 1, func() { DecodeOp(encOp) }},
		{"DecodeValue", 1, func() { DecodeValue(encVal) }},
		{"DecodeOp bare", 0, func() { DecodeOp(encBare) }},
	} {
		if got := testing.AllocsPerRun(200, tc.f); got > tc.max {
			t.Errorf("%s: %.1f allocs, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
