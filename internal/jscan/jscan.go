// Package jscan is the JSON syntax layer under the wire, adt and WAL
// codecs: an in-place scanner over a []byte and the append-style string
// and raw-value writers their encoders share. It reads and writes exactly
// what encoding/json does for the shapes those codecs use (same escapes,
// same number grammar, null leaves a field untouched, duplicate keys are
// last-wins, invalid UTF-8 becomes U+FFFD, nesting stops at 10,000) with
// one deliberate difference: object keys match case-sensitively. It
// allocates only to unescape a string that holds escapes.
package jscan

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

const maxDepth = 10000 // encoding/json's nesting limit

// Scanner is a cursor over one JSON document. Slices it hands out alias
// the document.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// New returns a Scanner at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) errf(msg string) error {
	return fmt.Errorf("jscan: %s at offset %d", msg, s.pos)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// End reports an error unless only whitespace remains.
func (s *Scanner) End() error {
	if s.peek(); s.pos < len(s.data) {
		return s.errf("data after top-level value")
	}
	return nil
}

// null consumes a null literal if one is next. For every typed reader
// below null means "leave the destination alone".
func (s *Scanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// open enters the object or array (c is '{' or '[') at the cursor.
func (s *Scanner) open(c byte) error {
	if s.peek() != c {
		return s.errf("want " + string(c))
	}
	if s.depth++; s.depth > maxDepth {
		return s.errf("exceeded max depth")
	}
	s.pos++
	return nil
}

// more consumes what precedes member i of the container that c opened —
// nothing before the first, a comma after — or its closing delimiter, and
// reports whether a member follows.
func (s *Scanner) more(c byte, i int) (bool, error) {
	switch next := s.peek(); {
	case next == c+2: // '{'+2 == '}', '['+2 == ']'
		s.pos++
		s.depth--
		return false, nil
	case i == 0:
		return true, nil
	case next == ',':
		s.pos++
		return true, nil
	}
	return false, s.errf("want , or " + string(c+2))
}

// key consumes a member name and its colon and returns the quoted name.
func (s *Scanner) key() ([]byte, error) {
	tok, err := s.str()
	if err == nil && s.peek() != ':' {
		err = s.errf("want :")
	}
	if err != nil {
		return nil, err // the cursor stays inside the document
	}
	s.pos++
	return tok, nil
}

// Object calls field with each member name, unescaped, of the object at
// the cursor; field must consume the member's value. null calls nothing.
func (s *Scanner) Object(field func(key []byte) error) error {
	if s.null() {
		return nil
	}
	err := s.open('{')
	for i := 0; err == nil; i++ {
		var ok bool
		if ok, err = s.more('{', i); !ok || err != nil {
			break
		}
		var tok []byte
		if tok, err = s.key(); err == nil {
			err = field(unquote(tok))
		}
	}
	return err
}

// Array calls elem at each element of the array at the cursor; elem must
// consume it. null calls nothing.
func (s *Scanner) Array(elem func() error) error {
	if s.null() {
		return nil
	}
	err := s.open('[')
	for i := 0; err == nil; i++ {
		var ok bool
		if ok, err = s.more('[', i); !ok || err != nil {
			break
		}
		err = elem()
	}
	return err
}

// Raw validates the value at the cursor and stores its bytes in *dst.
func (s *Scanner) Raw(dst *[]byte) error {
	s.peek()
	start := s.pos
	_, err := s.walk(nil, false)
	*dst = s.data[start:s.pos]
	return err
}

// Skip validates and discards the value at the cursor.
func (s *Scanner) Skip() error {
	_, err := s.walk(nil, false)
	return err
}

// walk validates the value at the cursor and, with emit, appends it to
// dst the way json.Marshal embeds a RawMessage: insignificant whitespace
// dropped, and <, >, &, U+2028 and U+2029 escaped. It calls no closure,
// so the document does not escape through it: a caller's stack buffer can
// be compacted without moving to the heap.
func (s *Scanner) walk(dst []byte, emit bool) ([]byte, error) {
	c := s.peek()
	start := s.pos
	var err error
	switch {
	case c == '{' || c == '[':
		if emit {
			dst = append(dst, c)
		}
		err = s.open(c)
		for i := 0; err == nil; i++ {
			var ok bool
			if ok, err = s.more(c, i); !ok || err != nil {
				break
			}
			if emit && i > 0 {
				dst = append(dst, ',')
			}
			if c == '{' {
				var tok []byte
				if tok, err = s.key(); err != nil {
					break
				}
				if emit {
					dst = append(appendHTMLSafe(dst, tok), ':')
				}
			}
			dst, err = s.walk(dst, emit)
		}
		if emit {
			dst = append(dst, c+2)
		}
		return dst, err
	case c == '"':
		_, err = s.str()
	case c == '-' || '0' <= c && c <= '9':
		err = s.number()
	default:
		err = s.literal()
	}
	if emit && err == nil {
		dst = appendHTMLSafe(dst, s.data[start:s.pos])
	}
	return dst, err
}

// literal consumes true, false or null.
func (s *Scanner) literal() error {
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
			s.pos += len(lit)
			return nil
		}
	}
	return s.errf("invalid value")
}

// digits advances over decimal digits and reports whether it saw any.
func (s *Scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// at reports whether the byte at the cursor, whitespace not skipped, is
// one of set.
func (s *Scanner) at(set string) bool {
	return s.pos < len(s.data) && strings.IndexByte(set, s.data[s.pos]) >= 0
}

// number consumes one token of JSON's number grammar.
func (s *Scanner) number() error {
	if s.peek() == '-' {
		s.pos++
	}
	first := s.pos
	ok := s.digits() && (s.data[first] != '0' || s.pos == first+1)
	if ok && s.at(".") {
		s.pos++
		ok = s.digits()
	}
	if ok && s.at("eE") {
		if s.pos++; s.at("+-") {
			s.pos++
		}
		ok = s.digits()
	}
	if !ok {
		return s.errf("invalid number")
	}
	return nil
}

// str consumes a string token and returns it, quotes included.
func (s *Scanner) str() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.errf("want string")
	}
	start := s.pos
	for s.pos++; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start:s.pos], nil
		case c < ' ':
			return nil, s.errf("control character in string")
		case c == '\\':
			if s.pos++; s.at("u") && getu4(s.data[s.pos-1:]) >= 0 {
				s.pos += 4
			} else if !s.at(`"\/bfnrt`) {
				return nil, s.errf("invalid escape")
			}
		}
	}
	return nil, s.errf("unterminated string")
}

// getu4 decodes \uXXXX at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// unquote returns the contents of a string token that str accepted: a
// sub-slice when it holds no escapes and only valid UTF-8, a fresh slice
// otherwise.
func unquote(tok []byte) []byte {
	b := tok[1 : len(tok)-1]
	if bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b) {
		return b
	}
	out := make([]byte, 0, len(b)+2*utf8.UTFMax)
	for r := 0; r < len(b); {
		switch c := b[r]; {
		case c == '\\' && b[r+1] == 'u':
			rr := getu4(b[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				// A valid pair is one rune; a lone half is U+FFFD and
				// what follows it is decoded on its own.
				if rr = utf16.DecodeRune(rr, getu4(b[r:])); rr != utf8.RuneError {
					r += 6
				}
			}
			out = utf8.AppendRune(out, rr)
		case c == '\\':
			c = b[r+1]
			if i := strings.IndexByte("bfnrt", c); i >= 0 {
				c = "\b\f\n\r\t"[i]
			}
			out = append(out, c)
			r += 2
		default:
			rr, size := utf8.DecodeRune(b[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// Bytes stores the string at the cursor, unescaped, in *dst; the result
// aliases the document when it can.
func (s *Scanner) Bytes(dst *[]byte) error {
	if s.null() {
		return nil
	}
	tok, err := s.str()
	if err == nil {
		*dst = unquote(tok)
	}
	return err
}

// String is Bytes into a string.
func (s *Scanner) String(dst *string) error {
	var b []byte
	err := s.Bytes(&b)
	if b != nil {
		*dst = string(b)
	}
	return err
}

// Bool stores the boolean at the cursor in *dst.
func (s *Scanner) Bool(dst *bool) error {
	if s.null() {
		return nil
	}
	c := s.peek()
	if c != 't' && c != 'f' {
		return s.errf("want boolean")
	}
	*dst = c == 't'
	return s.literal()
}

// integer consumes a number and returns its token, nil for null.
func (s *Scanner) integer() ([]byte, error) {
	if s.null() {
		return nil, nil
	}
	start := s.pos
	if err := s.number(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// Uint64 stores the unsigned integer at the cursor in *dst.
func (s *Scanner) Uint64(dst *uint64) error {
	tok, err := s.integer()
	if tok != nil {
		*dst, err = strconv.ParseUint(string(tok), 10, 64)
	}
	return err
}

// Int64 stores the integer at the cursor in *dst.
func (s *Scanner) Int64(dst *int64) error {
	tok, err := s.integer()
	if tok != nil {
		*dst, err = strconv.ParseInt(string(tok), 10, 64)
	}
	return err
}

const hex = "0123456789abcdef"

// appendHTMLSafe appends a token, escaping <, >, &, U+2028 and U+2029.
func appendHTMLSafe(dst, tok []byte) []byte {
	start := 0
	for i, c := range tok {
		switch {
		case c == '<' || c == '>' || c == '&':
			dst = append(append(dst, tok[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			start = i + 1
		case c == 0xE2 && i+2 < len(tok) && tok[i+1] == 0x80 && tok[i+2]&^1 == 0xA8:
			dst = append(append(dst, tok[start:i]...), '\\', 'u', '2', '0', '2', hex[tok[i+2]&0xF])
			start = i + 3
		}
	}
	return append(dst, tok[start:]...)
}

// AppendCompact appends the JSON value src to dst the way json.Marshal
// embeds a RawMessage (see walk), or fails if src is not one valid value.
func AppendCompact(dst, src []byte) ([]byte, error) {
	s := New(src)
	out, err := s.walk(dst, true)
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// AppendString appends s as a JSON string exactly as json.Marshal would.
func AppendString(dst []byte, s string) []byte {
	const named, namedAs = "\"\\\b\f\n\r\t", `"\bfnrt`
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), "\\ufffd"...)
		case r == 0x2028 || r == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		case r >= utf8.RuneSelf:
			i += size
			continue
		case strings.IndexByte(named, c) >= 0:
			dst = append(append(dst, s[start:i]...), '\\', namedAs[strings.IndexByte(named, c)])
		default:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
