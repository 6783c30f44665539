package adt

import (
	"encoding/json"
	"fmt"
)

// The encoding/json implementation the codec had before it was hand-
// written on internal/jscan, kept verbatim (names prefixed ref) as the
// reference FuzzAdtCodecMatchesEncodingJSON compares the live one with.

// refTaggedValue is the wire form of a Value.
type refTaggedValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v,omitempty"`
}

// refEncodeValue serialises a Value produced by the library's ops.
func refEncodeValue(v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return json.Marshal(refTaggedValue{T: "nil"})
	case int64:
		raw, _ := json.Marshal(x)
		return json.Marshal(refTaggedValue{T: "i", V: raw})
	case bool:
		raw, _ := json.Marshal(x)
		return json.Marshal(refTaggedValue{T: "b", V: raw})
	case string:
		raw, _ := json.Marshal(x)
		return json.Marshal(refTaggedValue{T: "s", V: raw})
	case AcctResult:
		raw, _ := json.Marshal(x)
		return json.Marshal(refTaggedValue{T: "acct", V: raw})
	case TakeResult:
		raw, _ := json.Marshal(x)
		return json.Marshal(refTaggedValue{T: "take", V: raw})
	default:
		return nil, fmt.Errorf("adt: cannot encode value of type %T", v)
	}
}

// refDecodeValue reverses refEncodeValue.
func refDecodeValue(data []byte) (Value, error) {
	var tv refTaggedValue
	if err := json.Unmarshal(data, &tv); err != nil {
		return nil, fmt.Errorf("adt: decode value: %w", err)
	}
	switch tv.T {
	case "nil":
		return nil, nil
	case "i":
		var x int64
		if err := json.Unmarshal(tv.V, &x); err != nil {
			return nil, err
		}
		return x, nil
	case "b":
		var x bool
		if err := json.Unmarshal(tv.V, &x); err != nil {
			return nil, err
		}
		return x, nil
	case "s":
		var x string
		if err := json.Unmarshal(tv.V, &x); err != nil {
			return nil, err
		}
		return x, nil
	case "acct":
		var x AcctResult
		if err := json.Unmarshal(tv.V, &x); err != nil {
			return nil, err
		}
		return x, nil
	case "take":
		var x TakeResult
		if err := json.Unmarshal(tv.V, &x); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, fmt.Errorf("adt: unknown value tag %q", tv.T)
	}
}

// refTaggedOp is the wire form of an Op.
type refTaggedOp struct {
	T string          `json:"t"`
	A json.RawMessage `json:"a,omitempty"`
}

// refEncodeOp serialises one of the library's operations.
func refEncodeOp(op Op) ([]byte, error) {
	tag, args, err := refOpTag(op)
	if err != nil {
		return nil, err
	}
	return json.Marshal(refTaggedOp{T: tag, A: args})
}

func refOpTag(op Op) (string, json.RawMessage, error) {
	marshal := func(v any) json.RawMessage {
		raw, _ := json.Marshal(v)
		return raw
	}
	switch x := op.(type) {
	case RegRead:
		return "reg.read", nil, nil
	case RegWrite:
		raw, err := refEncodeValue(x.V)
		if err != nil {
			return "", nil, err
		}
		return "reg.write", raw, nil
	case CtrGet:
		return "ctr.get", nil, nil
	case CtrAdd:
		return "ctr.add", marshal(x.Delta), nil
	case CtrTake:
		return "ctr.take", marshal(x.N), nil
	case AcctBalance:
		return "acct.balance", nil, nil
	case AcctDeposit:
		return "acct.deposit", marshal(x.Amount), nil
	case AcctWithdraw:
		return "acct.withdraw", marshal(x.Amount), nil
	case SetInsert:
		return "set.insert", marshal(x.X), nil
	case SetRemove:
		return "set.remove", marshal(x.X), nil
	case SetContains:
		return "set.contains", marshal(x.X), nil
	case SetSize:
		return "set.size", nil, nil
	case QEnqueue:
		raw, err := refEncodeValue(x.V)
		if err != nil {
			return "", nil, err
		}
		return "q.enqueue", raw, nil
	case QDequeue:
		return "q.dequeue", nil, nil
	case QPeek:
		return "q.peek", nil, nil
	case QLen:
		return "q.len", nil, nil
	case TblGet:
		return "tbl.get", marshal(x.K), nil
	case TblDelete:
		return "tbl.delete", marshal(x.K), nil
	case TblPut:
		v, err := refEncodeValue(x.V)
		if err != nil {
			return "", nil, err
		}
		return "tbl.put", marshal(struct {
			K string          `json:"k"`
			V json.RawMessage `json:"v"`
		}{x.K, v}), nil
	default:
		return "", nil, fmt.Errorf("adt: cannot encode op of type %T", op)
	}
}

// refDecodeOp reverses refEncodeOp.
func refDecodeOp(data []byte) (Op, error) {
	var to refTaggedOp
	if err := json.Unmarshal(data, &to); err != nil {
		return nil, fmt.Errorf("adt: decode op: %w", err)
	}
	switch to.T {
	case "reg.read":
		return RegRead{}, nil
	case "reg.write":
		v, err := refDecodeValue(to.A)
		if err != nil {
			return nil, err
		}
		return RegWrite{V: v}, nil
	case "ctr.get":
		return CtrGet{}, nil
	case "ctr.add":
		var d int64
		if err := json.Unmarshal(to.A, &d); err != nil {
			return nil, err
		}
		return CtrAdd{Delta: d}, nil
	case "ctr.take":
		var n int64
		if err := json.Unmarshal(to.A, &n); err != nil {
			return nil, err
		}
		return CtrTake{N: n}, nil
	case "acct.balance":
		return AcctBalance{}, nil
	case "acct.deposit":
		var a int64
		if err := json.Unmarshal(to.A, &a); err != nil {
			return nil, err
		}
		return AcctDeposit{Amount: a}, nil
	case "acct.withdraw":
		var a int64
		if err := json.Unmarshal(to.A, &a); err != nil {
			return nil, err
		}
		return AcctWithdraw{Amount: a}, nil
	case "set.insert", "set.remove", "set.contains":
		var x int64
		if err := json.Unmarshal(to.A, &x); err != nil {
			return nil, err
		}
		switch to.T {
		case "set.insert":
			return SetInsert{X: x}, nil
		case "set.remove":
			return SetRemove{X: x}, nil
		default:
			return SetContains{X: x}, nil
		}
	case "set.size":
		return SetSize{}, nil
	case "q.enqueue":
		v, err := refDecodeValue(to.A)
		if err != nil {
			return nil, err
		}
		return QEnqueue{V: v}, nil
	case "q.dequeue":
		return QDequeue{}, nil
	case "q.peek":
		return QPeek{}, nil
	case "q.len":
		return QLen{}, nil
	case "tbl.get", "tbl.delete":
		var k string
		if err := json.Unmarshal(to.A, &k); err != nil {
			return nil, err
		}
		if to.T == "tbl.get" {
			return TblGet{K: k}, nil
		}
		return TblDelete{K: k}, nil
	case "tbl.put":
		var kv struct {
			K string          `json:"k"`
			V json.RawMessage `json:"v"`
		}
		if err := json.Unmarshal(to.A, &kv); err != nil {
			return nil, err
		}
		v, err := refDecodeValue(kv.V)
		if err != nil {
			return nil, err
		}
		return TblPut{K: kv.K, V: v}, nil
	default:
		return nil, fmt.Errorf("adt: unknown op tag %q", to.T)
	}
}

// refTaggedState is the wire form of a State.
type refTaggedState struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v,omitempty"`
}

// refEncodeState serialises one of the library's states.
func refEncodeState(s State) ([]byte, error) {
	marshal := func(tag string, v any) ([]byte, error) {
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return json.Marshal(refTaggedState{T: tag, V: raw})
	}
	switch x := s.(type) {
	case Register:
		v, err := refEncodeValue(x.V)
		if err != nil {
			return nil, err
		}
		return json.Marshal(refTaggedState{T: "reg", V: v})
	case Counter:
		return marshal("ctr", x.N)
	case Account:
		return marshal("acct", x.Balance)
	case IntSet:
		members := make([]int64, 0, x.Size())
		for k := range x.m {
			members = append(members, k)
		}
		return marshal("set", members)
	case Queue:
		enc := make([]json.RawMessage, 0, x.Len())
		for _, v := range x.Items() {
			raw, err := refEncodeValue(v)
			if err != nil {
				return nil, err
			}
			enc = append(enc, raw)
		}
		return marshal("queue", enc)
	case Table:
		enc := make(map[string]json.RawMessage, len(x.m))
		for k, v := range x.m {
			raw, err := refEncodeValue(v)
			if err != nil {
				return nil, err
			}
			enc[k] = raw
		}
		return marshal("tbl", enc)
	default:
		return nil, fmt.Errorf("adt: cannot encode state of type %T", s)
	}
}

// refDecodeState reverses refEncodeState.
func refDecodeState(data []byte) (State, error) {
	var ts refTaggedState
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("adt: decode state: %w", err)
	}
	switch ts.T {
	case "reg":
		v, err := refDecodeValue(ts.V)
		if err != nil {
			return nil, err
		}
		return NewRegister(v), nil
	case "ctr":
		var n int64
		if err := json.Unmarshal(ts.V, &n); err != nil {
			return nil, err
		}
		return Counter{N: n}, nil
	case "acct":
		var b int64
		if err := json.Unmarshal(ts.V, &b); err != nil {
			return nil, err
		}
		return Account{Balance: b}, nil
	case "set":
		var members []int64
		if err := json.Unmarshal(ts.V, &members); err != nil {
			return nil, err
		}
		return NewIntSet(members...), nil
	case "queue":
		var enc []json.RawMessage
		if err := json.Unmarshal(ts.V, &enc); err != nil {
			return nil, err
		}
		items := make([]Value, 0, len(enc))
		for _, raw := range enc {
			v, err := refDecodeValue(raw)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		return NewQueue(items...), nil
	case "tbl":
		var enc map[string]json.RawMessage
		if err := json.Unmarshal(ts.V, &enc); err != nil {
			return nil, err
		}
		m := make(map[string]Value, len(enc))
		for k, raw := range enc {
			v, err := refDecodeValue(raw)
			if err != nil {
				return nil, err
			}
			m[k] = v
		}
		return NewTable(m), nil
	default:
		return nil, fmt.Errorf("adt: unknown state tag %q", ts.T)
	}
}
