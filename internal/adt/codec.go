package adt

import (
	"fmt"
	"sort"
	"strconv"

	"nestedtx/internal/jscan"
)

// The codec serialises the library's values, operations and states with
// explicit type tags, so schedules and system types round-trip through
// JSON exactly (encoding/json alone would erase int64 into float64 and
// lose struct identity). Custom user-defined ops are not serialisable;
// the tools that persist schedules work with the library types.
//
// Every form is {"t":<tag>} with, where the tag has a payload, a second
// member ("v" for values and states, "a" for an op's argument). The
// appenders and decoders are hand-written on internal/jscan and are
// byte-compatible with what encoding/json produced for the same shapes
// (the old implementation is the fuzz reference in codec_ref_test.go);
// keys are case-sensitive.

// open appends the envelope up to the payload: {"t":"<tag>","<key>":
func open(dst []byte, tag, key string) []byte {
	dst = append(append(dst, `{"t":"`...), tag...)
	return append(append(append(dst, `","`...), key...), `":`...)
}

func appendInt(dst []byte, tag, key string, n int64) ([]byte, error) {
	return append(strconv.AppendInt(open(dst, tag, key), n, 10), '}'), nil
}

// appendResult appends an {OK, <name>} result struct as a value.
func appendResult(dst []byte, tag string, ok bool, name string, n int64) ([]byte, error) {
	dst = strconv.AppendBool(append(open(dst, tag, "v"), `{"OK":`...), ok)
	dst = append(append(append(dst, `,"`...), name...), `":`...)
	return append(strconv.AppendInt(dst, n, 10), "}}"...), nil
}

// AppendValue appends the encoding of a Value produced by the library's
// ops to dst. Like AppendOp and AppendState, on error it returns dst with
// whatever part of the encoding it had appended.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, `{"t":"nil"}`...), nil
	case int64:
		return appendInt(dst, "i", "v", x)
	case bool:
		return append(strconv.AppendBool(open(dst, "b", "v"), x), '}'), nil
	case string:
		return append(jscan.AppendString(open(dst, "s", "v"), x), '}'), nil
	case AcctResult:
		return appendResult(dst, "acct", x.OK, "Balance", x.Balance)
	case TakeResult:
		return appendResult(dst, "take", x.OK, "N", x.N)
	}
	return dst, fmt.Errorf("adt: cannot encode value of type %T", v)
}

// encoded turns an appender's result into an encoder's: nothing on error.
func encoded(enc []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// EncodeValue serialises a Value produced by the library's ops.
func EncodeValue(v Value) ([]byte, error) { return encoded(AppendValue(nil, v)) }

// appendNested appends a value as the payload of an envelope.
func appendNested(dst []byte, tag, key string, v Value) ([]byte, error) {
	dst, err := AppendValue(open(dst, tag, key), v)
	return append(dst, '}'), err
}

// AppendOp appends the encoding of one of the library's operations.
func AppendOp(dst []byte, op Op) ([]byte, error) {
	bare := func(tag string) ([]byte, error) {
		return append(append(append(dst, `{"t":"`...), tag...), `"}`...), nil
	}
	str := func(tag, k string) ([]byte, error) {
		return append(jscan.AppendString(open(dst, tag, "a"), k), '}'), nil
	}
	switch x := op.(type) {
	case RegRead:
		return bare("reg.read")
	case RegWrite:
		return appendNested(dst, "reg.write", "a", x.V)
	case CtrGet:
		return bare("ctr.get")
	case CtrAdd:
		return appendInt(dst, "ctr.add", "a", x.Delta)
	case CtrTake:
		return appendInt(dst, "ctr.take", "a", x.N)
	case AcctBalance:
		return bare("acct.balance")
	case AcctDeposit:
		return appendInt(dst, "acct.deposit", "a", x.Amount)
	case AcctWithdraw:
		return appendInt(dst, "acct.withdraw", "a", x.Amount)
	case SetInsert:
		return appendInt(dst, "set.insert", "a", x.X)
	case SetRemove:
		return appendInt(dst, "set.remove", "a", x.X)
	case SetContains:
		return appendInt(dst, "set.contains", "a", x.X)
	case SetSize:
		return bare("set.size")
	case QEnqueue:
		return appendNested(dst, "q.enqueue", "a", x.V)
	case QDequeue:
		return bare("q.dequeue")
	case QPeek:
		return bare("q.peek")
	case QLen:
		return bare("q.len")
	case TblGet:
		return str("tbl.get", x.K)
	case TblDelete:
		return str("tbl.delete", x.K)
	case TblPut:
		dst = jscan.AppendString(append(open(dst, "tbl.put", "a"), `{"k":`...), x.K)
		dst, err := AppendValue(append(dst, `,"v":`...), x.V)
		return append(dst, "}}"...), err
	}
	return dst, fmt.Errorf("adt: cannot encode op of type %T", op)
}

// EncodeOp serialises one of the library's operations.
func EncodeOp(op Op) ([]byte, error) { return encoded(AppendOp(nil, op)) }

// AppendState appends the encoding of one of the library's states.
func AppendState(dst []byte, s State) ([]byte, error) {
	var err error
	switch x := s.(type) {
	case Register:
		return appendNested(dst, "reg", "v", x.V)
	case Counter:
		return appendInt(dst, "ctr", "v", x.N)
	case Account:
		return appendInt(dst, "acct", "v", x.Balance)
	case IntSet:
		dst = append(open(dst, "set", "v"), '[')
		for k := range x.m {
			dst = append(strconv.AppendInt(dst, k, 10), ',')
		}
		return closeList(dst, "]}"), nil
	case Queue:
		dst = append(open(dst, "queue", "v"), '[')
		for _, v := range x.items {
			if dst, err = AppendValue(dst, v); err != nil {
				return dst, err
			}
			dst = append(dst, ',')
		}
		return closeList(dst, "]}"), nil
	case Table:
		keys := make([]string, 0, len(x.m))
		for k := range x.m {
			keys = append(keys, k)
		}
		sort.Strings(keys) // encoding/json's map order
		dst = append(open(dst, "tbl", "v"), '{')
		for _, k := range keys {
			if dst, err = AppendValue(append(jscan.AppendString(dst, k), ':'), x.m[k]); err != nil {
				return dst, err
			}
			dst = append(dst, ',')
		}
		return closeList(dst, "}}"), nil
	}
	return dst, fmt.Errorf("adt: cannot encode state of type %T", s)
}

// closeList replaces the separator after a list's last element, if it
// had any, with the closing delimiters.
func closeList(dst []byte, closers string) []byte {
	if dst[len(dst)-1] == ',' {
		dst = dst[:len(dst)-1]
	}
	return append(dst, closers...)
}

// EncodeState serialises one of the library's states.
func EncodeState(s State) ([]byte, error) { return encoded(AppendState(nil, s)) }

// envelope scans {"t":<tag>,"<key>":<payload>} and returns the tag and
// the payload's bytes: empty, so that every decode of it fails, when the
// member is absent.
func envelope(data []byte, key, what string) (tag, payload []byte, err error) {
	s := jscan.New(data)
	err = s.Object(func(k []byte) error {
		switch string(k) {
		case "t":
			return s.Bytes(&tag)
		case key:
			return s.Raw(&payload)
		}
		return s.Skip()
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		err = fmt.Errorf("adt: decode %s: %w", what, err)
	}
	return tag, payload, err
}

func decInt(raw []byte) (x int64, err error) {
	s := jscan.New(raw)
	err = s.Int64(&x)
	return x, err
}

func decStr(raw []byte) (x string, err error) {
	s := jscan.New(raw)
	err = s.String(&x)
	return x, err
}

// decResult decodes an {OK, <name>} result struct.
func decResult(raw []byte, name string) (ok bool, n int64, err error) {
	s := jscan.New(raw)
	err = s.Object(func(k []byte) error {
		switch string(k) {
		case "OK":
			return s.Bool(&ok)
		case name:
			return s.Int64(&n)
		}
		return s.Skip()
	})
	return ok, n, err
}

// DecodeValue reverses EncodeValue.
func DecodeValue(data []byte) (Value, error) {
	tag, raw, err := envelope(data, "v", "value")
	if err != nil {
		return nil, err
	}
	switch string(tag) {
	case "nil":
		return nil, nil
	case "i":
		x, err := decInt(raw)
		return x, err
	case "b":
		var x bool
		s := jscan.New(raw)
		err := s.Bool(&x)
		return x, err
	case "s":
		x, err := decStr(raw)
		return x, err
	case "acct":
		ok, n, err := decResult(raw, "Balance")
		return AcctResult{OK: ok, Balance: n}, err
	case "take":
		ok, n, err := decResult(raw, "N")
		return TakeResult{OK: ok, N: n}, err
	}
	return nil, fmt.Errorf("adt: unknown value tag %q", tag)
}

// The decode side of the op vocabulary whose argument is absent or one
// integer; DecodeOp spells out the rest.
var (
	bareOps = map[string]Op{
		"reg.read": RegRead{}, "ctr.get": CtrGet{}, "acct.balance": AcctBalance{}, "set.size": SetSize{},
		"q.dequeue": QDequeue{}, "q.peek": QPeek{}, "q.len": QLen{},
	}
	intOps = map[string]func(int64) Op{
		"ctr.add":       func(n int64) Op { return CtrAdd{Delta: n} },
		"ctr.take":      func(n int64) Op { return CtrTake{N: n} },
		"acct.deposit":  func(n int64) Op { return AcctDeposit{Amount: n} },
		"acct.withdraw": func(n int64) Op { return AcctWithdraw{Amount: n} },
		"set.insert":    func(n int64) Op { return SetInsert{X: n} },
		"set.remove":    func(n int64) Op { return SetRemove{X: n} },
		"set.contains":  func(n int64) Op { return SetContains{X: n} },
	}
)

// DecodeOp reverses EncodeOp.
func DecodeOp(data []byte) (Op, error) {
	tag, raw, err := envelope(data, "a", "op")
	if err != nil {
		return nil, err
	}
	if op, ok := bareOps[string(tag)]; ok {
		return op, nil
	}
	if mk, ok := intOps[string(tag)]; ok {
		n, err := decInt(raw)
		return mk(n), err
	}
	switch string(tag) {
	case "reg.write":
		v, err := DecodeValue(raw)
		return RegWrite{V: v}, err
	case "q.enqueue":
		v, err := DecodeValue(raw)
		return QEnqueue{V: v}, err
	case "tbl.get":
		k, err := decStr(raw)
		return TblGet{K: k}, err
	case "tbl.delete":
		k, err := decStr(raw)
		return TblDelete{K: k}, err
	case "tbl.put":
		var put TblPut
		var v []byte
		s := jscan.New(raw)
		err := s.Object(func(k []byte) error {
			switch string(k) {
			case "k":
				return s.String(&put.K)
			case "v":
				return s.Raw(&v)
			}
			return s.Skip()
		})
		if err == nil {
			put.V, err = DecodeValue(v)
		}
		return put, err
	}
	return nil, fmt.Errorf("adt: unknown op tag %q", tag)
}

// DecodeState reverses EncodeState.
func DecodeState(data []byte) (State, error) {
	tag, raw, err := envelope(data, "v", "state")
	if err != nil {
		return nil, err
	}
	s := jscan.New(raw)
	// element decodes the encoded Value at the cursor.
	element := func() (Value, error) {
		var enc []byte
		if err := s.Raw(&enc); err != nil {
			return nil, err
		}
		return DecodeValue(enc)
	}
	switch string(tag) {
	case "reg":
		v, err := DecodeValue(raw)
		return NewRegister(v), err
	case "ctr":
		n, err := decInt(raw)
		return Counter{N: n}, err
	case "acct":
		n, err := decInt(raw)
		return Account{Balance: n}, err
	case "set":
		set := IntSet{m: make(map[int64]struct{})}
		err := s.Array(func() error {
			var x int64
			err := s.Int64(&x)
			set.m[x] = struct{}{}
			return err
		})
		return set, err
	case "queue":
		q := Queue{items: []Value{}}
		err := s.Array(func() error {
			v, err := element()
			q.items = append(q.items, v)
			return err
		})
		return q, err
	case "tbl":
		// A duplicate key keeps only its last value, as in encoding/json,
		// so the values are decoded once the object has been read.
		raws := make(map[string][]byte)
		if err := s.Object(func(k []byte) error {
			var enc []byte
			err := s.Raw(&enc)
			raws[string(k)] = enc
			return err
		}); err != nil {
			return nil, err
		}
		tbl := Table{m: make(map[string]Value, len(raws))}
		for k, enc := range raws {
			v, err := DecodeValue(enc)
			if err != nil {
				return nil, err
			}
			tbl.m[k] = v
		}
		return tbl, nil
	}
	return nil, fmt.Errorf("adt: unknown state tag %q", tag)
}
