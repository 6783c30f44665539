package wal

import (
	"bytes"
	"reflect"
	"testing"

	"nestedtx/internal/adt"
)

// FuzzRecordEncodeMatchesEncodingJSON holds the record appender to the
// encoding/json encoder it replaced (record_ref_test.go): for commit and
// register records built from the fuzzed scalars, EncodeFrame and the
// log's own stage-then-seal path both produce exactly the frame the
// reference payload gives, at any LSN and after any prefix, unencodable
// records fail on both sides, and the frame decodes back to the record.
func FuzzRecordEncodeMatchesEncodingJSON(f *testing.F) {
	tricky := "q\"b\\s<>&  \x00\x1f\x7f\xff\xc3\x28é😀\b\f\n\r\t"
	f.Add(uint64(0), "T0.1", "ctr", int64(1), byte(2))
	f.Add(uint64(9), "", "", int64(-1<<63), byte(0))
	f.Add(uint64(99999999999), tricky, tricky, int64(1<<63-1), byte(13))
	f.Add(uint64(1<<64-1), "T0.7.3", "acct-3", int64(255), byte(255))
	f.Fuzz(func(t *testing.T, lsn uint64, tid, obj string, n int64, shape byte) {
		values := []adt.Value{nil, n, n%2 == 0, tid, adt.AcctResult{OK: true, Balance: n}, adt.TakeResult{N: n}, struct{ X int64 }{n}}
		ops := []adt.Op{adt.CtrGet{}, adt.CtrAdd{Delta: n}, adt.RegWrite{V: tid}, adt.TblPut{K: obj, V: n}, adt.SetInsert{X: n},
			adt.QEnqueue{V: adt.TakeResult{OK: true, N: n}}, adt.AcctWithdraw{Amount: n}, adt.TblGet{K: tid}}
		commit := &CommitRecord{TID: tid, Value: values[int(shape)%len(values)]}
		for i := 0; i < int(shape)%5; i++ {
			commit.Effects = append(commit.Effects, Effect{Obj: obj, Op: ops[(int(shape)+i)%len(ops)], Val: values[(int(shape)+i)%(len(values)-1)]})
		}
		states := []adt.State{adt.Counter{N: n}, adt.Account{Balance: n}, adt.NewRegister(tid), adt.NewIntSet(n),
			adt.NewQueue(values[:6]...), adt.NewTable(map[string]adt.Value{obj: n, tid: tid})}
		bad := *commit
		bad.Effects = append([]Effect{{Obj: obj, Op: adt.RegWrite{V: struct{}{}}, Val: nil}}, commit.Effects...)
		for _, r := range []Record{{LSN: lsn, Commit: commit}, {LSN: lsn, Commit: &bad}, {LSN: lsn},
			{LSN: lsn, Register: &RegisterRecord{Name: obj, Initial: states[int(shape)%len(states)]}}} {
			payload, werr := marshalRecord(r)
			got, gerr := EncodeFrame([]byte("prefix"), r)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("EncodeFrame(%+v): %v; reference: %v", r, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			want := appendFrame([]byte("prefix"), payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeFrame(%+v) =\n%q, reference\n%q", r, got, want)
			}
			staged, err := stageRecord(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			if sealed, start := sealFrame(staged, frameRoom, lsn); !bytes.Equal(sealed[start:], want[len("prefix"):]) {
				t.Fatalf("stage+seal(%+v) =\n%q, reference\n%q", r, sealed[start:], want[len("prefix"):])
			}
			back, err := DecodeFrames(got[len("prefix"):])
			if err != nil || len(back) != 1 {
				t.Fatalf("DecodeFrames(%q) = %v, %v", got, back, err)
			}
			if again, err := EncodeFrame([]byte("prefix"), back[0]); err != nil || !bytes.Equal(again, reencoded(t, back[0])) {
				t.Fatalf("decoded record re-encodes as %q, %v", again, err)
			}
		}
	})
}

// reencoded is the reference frame of a record that came back from
// DecodeFrames (whose strings are valid UTF-8 by then).
func reencoded(t *testing.T, r Record) []byte {
	t.Helper()
	payload, err := marshalRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	return appendFrame([]byte("prefix"), payload)
}

// TestEncodeFrameAllocationBudget: framing a two-effect commit record
// into a reused buffer — what the shipper and the bench probe do, and
// what enqueue does into its pooled one — costs at most two allocations;
// the reflective encoder and its three copies cost over twenty.
func TestEncodeFrameAllocationBudget(t *testing.T) {
	r := Record{LSN: 12345, Commit: &CommitRecord{TID: "T0.1234", Value: int64(2), Effects: []Effect{
		{Obj: "acct-00017", Op: adt.AcctWithdraw{Amount: 1 << 40}, Val: adt.AcctResult{OK: true, Balance: 1 << 41}},
		{Obj: "acct-00042", Op: adt.AcctDeposit{Amount: 1 << 40}, Val: adt.AcctResult{OK: true, Balance: 1 << 42}},
	}}}
	dst, err := EncodeFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), dst...)
	allocs := testing.AllocsPerRun(200, func() {
		if dst, err = EncodeFrame(dst[:0], r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("EncodeFrame into a reused buffer: %.1f allocs, budget 2", allocs)
	}
	back, err := DecodeFrames(dst)
	if err != nil || !bytes.Equal(dst, first) || !reflect.DeepEqual(back, []Record{r}) {
		t.Fatalf("frame did not survive reuse: %v", err)
	}
}
