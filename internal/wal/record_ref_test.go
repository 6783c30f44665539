package wal

import (
	"encoding/json"
	"fmt"

	"nestedtx/internal/adt"
)

// The encoding/json record encoder the log had before appendBody, kept
// verbatim as the reference FuzzRecordEncodeMatchesEncodingJSON compares
// the live one with (and as the seed builder of FuzzSegmentScan).

// encodeValueOrNil encodes v, falling back to nil for values outside the
// library vocabulary: a top-level Return value may be any comparable
// type, and the checker never inspects top-level commit values, so an
// unencodable one degrades to nil in the log rather than failing the
// commit. Access values are always library values and never hit the
// fallback.
func encodeValueOrNil(v adt.Value) json.RawMessage {
	raw, err := adt.EncodeValue(v)
	if err != nil {
		raw, _ = adt.EncodeValue(nil)
	}
	return raw
}

func marshalRecord(r Record) ([]byte, error) {
	jr := jsonRecord{LSN: r.LSN}
	switch {
	case r.Commit != nil:
		jr.Kind = "commit"
		jr.TID = r.Commit.TID
		jr.Val = encodeValueOrNil(r.Commit.Value)
		jr.Ops = make([]jsonEffect, len(r.Commit.Effects))
		for i, e := range r.Commit.Effects {
			op, err := adt.EncodeOp(e.Op)
			if err != nil {
				return nil, fmt.Errorf("wal: %s op %d on %q: %w", r.Commit.TID, i, e.Obj, err)
			}
			val, err := adt.EncodeValue(e.Val)
			if err != nil {
				return nil, fmt.Errorf("wal: %s value %d on %q: %w", r.Commit.TID, i, e.Obj, err)
			}
			jr.Ops[i] = jsonEffect{Obj: e.Obj, Op: op, Val: val}
		}
	case r.Register != nil:
		jr.Kind = "register"
		jr.Obj = r.Register.Name
		st, err := adt.EncodeState(r.Register.Initial)
		if err != nil {
			return nil, fmt.Errorf("wal: register %q: %w", r.Register.Name, err)
		}
		jr.St = st
	default:
		return nil, fmt.Errorf("wal: empty record")
	}
	return json.Marshal(jr)
}
