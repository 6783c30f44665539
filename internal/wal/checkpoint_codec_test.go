package wal

import (
	"bytes"
	"iter"
	"maps"
	"reflect"
	"slices"
	"testing"

	"nestedtx/internal/adt"
)

// FuzzCheckpointEncodeMatchesEncodingJSON holds the checkpoint writer and
// reader to the encoding/json codec they replaced (checkpoint_ref_test.go):
// for states built from the fuzzed scalars, under names that need
// escaping, encodeCheckpoint frames exactly the reference payload at any
// LSN and into a buffer holding anything, an unencodable state fails on
// both sides, and both decoders read the frame back to the same LSN and
// states.
func FuzzCheckpointEncodeMatchesEncodingJSON(f *testing.F) {
	tricky := "q\"b\\s<>&  \x00\x1f\x7f\xff\xc3\x28é😀\b\f\n\r\t"
	f.Add(uint64(0), "acct-1", "ctr", int64(1), byte(0))
	f.Add(uint64(9), "", "", int64(-1<<63), byte(7))
	f.Add(uint64(99999999999), tricky, tricky+"x", int64(1<<63-1), byte(13))
	f.Add(uint64(1<<64-1), "\u2028", "\u2029", int64(255), byte(255))
	f.Fuzz(func(t *testing.T, lsn uint64, a, b string, n int64, shape byte) {
		values := []adt.Value{nil, n, n%2 == 0, a, adt.AcctResult{OK: true, Balance: n}, adt.TakeResult{N: n}}
		pool := []adt.State{adt.Counter{N: n}, adt.Account{Balance: n}, adt.NewRegister(b), adt.NewRegister(n),
			adt.NewIntSet(n), adt.NewQueue(values...), adt.NewTable(map[string]adt.Value{a: n, b: a})}
		names := []string{a, b, a + b, b + a, "obj"}
		states := make(map[string]adt.State)
		for i := 0; i < int(shape)%len(names)+1; i++ {
			states[names[i]] = pool[(int(shape)+i)%len(pool)]
		}
		bad := map[string]adt.State{a: adt.NewRegister(struct{ X int64 }{n})}
		for _, sts := range []map[string]adt.State{states, {}, bad} {
			payload, werr := marshalCheckpoint(lsn, sts)
			got, gerr := encodeCheckpoint([]byte("prefix"), lsn, sorted(sts))
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("encodeCheckpoint(%v): %v; reference: %v", sts, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if want := appendFrame(nil, payload); !bytes.Equal(got, want) {
				t.Fatalf("encodeCheckpoint(%v) =\n%q, reference\n%q", sts, got, want)
			}
			body, n, err := scanFrame(got)
			if err != nil || n != len(got) {
				t.Fatalf("scanFrame(%q) = %d, %v", got, n, err)
			}
			glsn, gst, gerr := unmarshalCheckpoint(body)
			wlsn, wst, werr := unmarshalCheckpointRef(body)
			if (gerr == nil) != (werr == nil) || glsn != wlsn || !reflect.DeepEqual(gst, wst) {
				t.Fatalf("decoders disagree on %q:\n%d %v %v\nreference %d %v %v", body, glsn, gst, gerr, wlsn, wst, werr)
			}
			// Names that are not valid UTF-8 may meet as one: both decoders
			// agree on which state that name ends with.
			if gerr != nil || glsn != lsn {
				t.Fatalf("checkpoint at %d read back at %d: %v", lsn, glsn, gerr)
			}
		}
	})
}

// sorted yields states in ascending name order.
func sorted(states map[string]adt.State) iter.Seq2[string, adt.State] {
	return func(yield func(string, adt.State) bool) {
		for _, x := range slices.Sorted(maps.Keys(states)) {
			if !yield(x, states[x]) {
				return
			}
		}
	}
}
