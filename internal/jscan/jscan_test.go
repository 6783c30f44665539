package jscan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// scalar runs one typed reader over a whole document.
func scalar(data []byte, read func(*Scanner) error) error {
	s := New(data)
	if err := read(&s); err != nil {
		return err
	}
	return s.End()
}

// FuzzSyntaxMatchesEncodingJSON holds the scanner and the two writers to
// encoding/json on arbitrary bytes: the same documents are valid, every
// scalar reader accepts what json.Unmarshal accepts into that Go type and
// yields the same value, and AppendString/AppendCompact emit the bytes
// json.Marshal emits for a string and for a RawMessage.
func FuzzSyntaxMatchesEncodingJSON(f *testing.F) {
	for _, seed := range []string{
		``, `null`, `true`, `false`, `0`, `-0`, `01`, `1.5`, `1e3`, `-`, `18446744073709551615`, `18446744073709551616`,
		`9223372036854775807`, `-9223372036854775808`, `-9223372036854775809`, ` 7 `, `"plain"`, `"a\"b\\c\/d\b\f\n\r\t"`,
		`"é 😀\ud83dx\udc00"`, "\"\xff\xc3\x28\xe2\x80\xa8<>&\"", `"\x"`, `"\u12"`, "\"a\nb\"",
		`{}`, `[]`, `{"a":1,"a":[1,2,{"b":null}]}`, `[1,]`, `{,}`, `{"a"}`, `{"a":}`, `[1 2]`, `{"a":1 "b":2}`, `nullx`, `{} x`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000), strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		" {\t\"k\" :\r\n [ 1 , \"<\\u003c>\" ] } ", "{" + strings.Repeat(" ", 23),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := json.Valid(data)
		var raw []byte
		err := scalar(data, func(s *Scanner) error { return s.Raw(&raw) })
		if (err == nil) != valid {
			t.Fatalf("Raw(%q): err %v, json.Valid %v", data, err, valid)
		}
		if valid && !bytes.Equal(raw, bytes.TrimSpace(data)) {
			t.Fatalf("Raw(%q) = %q", data, raw)
		}

		want, werr := json.Marshal(json.RawMessage(data))
		got, gerr := AppendCompact([]byte("x"), data)
		if (gerr == nil) != (werr == nil) || gerr == nil && string(got) != "x"+string(want) {
			t.Fatalf("AppendCompact(%q) = %q, %v; json.Marshal = %q, %v", data, got, gerr, want, werr)
		}
		want, _ = json.Marshal(string(data))
		if got := AppendString([]byte("x"), string(data)); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %q; json.Marshal = %q", data, got, want)
		}

		// A reader given a leading value leaves its destination alone on
		// null, as json.Unmarshal does.
		ws, gs := "seed", "seed"
		werr, gerr = json.Unmarshal(data, &ws), scalar(data, func(s *Scanner) error { return s.String(&gs) })
		if (gerr == nil) != (werr == nil) || gerr == nil && gs != ws {
			t.Fatalf("String(%q) = %q, %v; json.Unmarshal = %q, %v", data, gs, gerr, ws, werr)
		}
		wi, gi := int64(7), int64(7)
		werr, gerr = json.Unmarshal(data, &wi), scalar(data, func(s *Scanner) error { return s.Int64(&gi) })
		if (gerr == nil) != (werr == nil) || gerr == nil && gi != wi {
			t.Fatalf("Int64(%q) = %d, %v; json.Unmarshal = %d, %v", data, gi, gerr, wi, werr)
		}
		wu, gu := uint64(7), uint64(7)
		werr, gerr = json.Unmarshal(data, &wu), scalar(data, func(s *Scanner) error { return s.Uint64(&gu) })
		if (gerr == nil) != (werr == nil) || gerr == nil && gu != wu {
			t.Fatalf("Uint64(%q) = %d, %v; json.Unmarshal = %d, %v", data, gu, gerr, wu, werr)
		}
		wb, gb := true, true
		werr, gerr = json.Unmarshal(data, &wb), scalar(data, func(s *Scanner) error { return s.Bool(&gb) })
		if (gerr == nil) != (werr == nil) || gerr == nil && gb != wb {
			t.Fatalf("Bool(%q) = %v, %v; json.Unmarshal = %v, %v", data, gb, gerr, wb, werr)
		}
	})
}

// TestObjectAndArray covers the two iterators: last duplicate wins,
// escaped keys are unescaped before matching, unknown members are
// skipped, and keys match case-sensitively.
func TestObjectAndArray(t *testing.T) {
	var n, dup int64
	var seen []string
	var list []int64
	s := New([]byte(` {"dup":1,"N":5,"n":6,"skip":{"x":[1,"}"]},"list":[3,null,4],"dup":2,"dup":null} `))
	err := s.Object(func(key []byte) error {
		seen = append(seen, string(key))
		switch string(key) {
		case "n":
			return s.Int64(&n)
		case "dup":
			return s.Int64(&dup)
		case "list":
			return s.Array(func() error {
				var x int64
				err := s.Int64(&x)
				list = append(list, x)
				return err
			})
		}
		return s.Skip()
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || dup != 2 || len(list) != 3 || list[0] != 3 || list[1] != 0 || list[2] != 4 {
		t.Fatalf("n=%d dup=%d list=%v", n, dup, list)
	}
	if got := strings.Join(seen, ","); got != "dup,N,n,skip,list,dup,dup" {
		t.Fatalf("keys seen: %s", got)
	}
	for _, bad := range []string{`[1]`, `{"a":1,}`, `{"a" 1}`, `{a:1}`, `{"a":1`, `5`} {
		s := New([]byte(bad))
		if err := s.Object(func([]byte) error { return s.Skip() }); err == nil && s.End() == nil {
			t.Errorf("Object accepted %s", bad)
		}
	}
}

// TestScannerDoesNotAllocate pins the point of the package: scanning a
// frame-shaped document, raw sub-values and plain strings included,
// allocates nothing.
func TestScannerDoesNotAllocate(t *testing.T) {
	doc := []byte(`{"seq":12345678901,"type":"WRITE","tx":3,"obj":"ctr-17","op":{"t":"ctr.add","a":-12345678901},"x":[1,{"y":"z"},true,null],"ok":false}`)
	allocs := testing.AllocsPerRun(200, func() {
		var seq uint64
		var typ, op []byte
		ok := true
		s := New(doc)
		err := s.Object(func(key []byte) error {
			switch string(key) {
			case "seq":
				return s.Uint64(&seq)
			case "type":
				return s.Bytes(&typ)
			case "op":
				return s.Raw(&op)
			case "ok":
				return s.Bool(&ok)
			}
			return s.Skip()
		})
		if err != nil || s.End() != nil || seq != 12345678901 || string(typ) != "WRITE" || ok {
			t.Fatalf("scan failed: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning allocated %.1f times per document, want 0", allocs)
	}
}
