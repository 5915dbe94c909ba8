// Package fastjson holds the scanner and the appenders behind the
// hand-written hit-path codecs of internal/wire and internal/obs.
//
// The Scanner reads a strict subset of JSON: objects whose keys are plain
// ASCII without escapes, arrays, plain integers of at most 18 digits (no
// fraction, exponent or leading zero), true and false, and ASCII strings
// whose only escapes are \n \r \t \" \\ and \/. Every method reports false
// on anything outside that subset — null, \u escapes, non-ASCII bytes,
// malformed input — and the codec built on it then hands the whole body to
// encoding/json, which stays the reference and the only writer of error
// messages. Whatever the subset accepts, encoding/json accepts with the same
// value.
//
// The appenders write exactly the bytes encoding/json writes for the same
// value: strings HTML-escaped, invalid UTF-8 as \ufffd, U+2028 and U+2029
// escaped, nil slices as null.
package fastjson

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDigits bounds the integers the scanner accepts, so every accepted
// value fits an int64 without overflow checks.
const maxDigits = 18

// Scanner reads one strict-subset JSON value from a byte slice.
type Scanner struct {
	data []byte
	pos  int
}

// NewScanner returns a scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Done reports whether only whitespace remains.
func (s *Scanner) Done() bool {
	s.skipSpace()
	return s.pos == len(s.data)
}

// Object scans an object, calling field with each key while the scanner
// sits at that key's value; field must consume the value and report
// success. The key slice aliases the input.
func (s *Scanner) Object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.key()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// Array scans an array, calling elem once per element while the scanner
// sits at it; elem must consume the element and report success.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// key scans an object key: printable ASCII, no escapes.
func (s *Scanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
		s.pos++
	}
	return nil, false
}

// String scans a string.
func (s *Scanner) String() (string, bool) {
	if !s.consume('"') {
		return "", false
	}
	start, escapes := s.pos, 0
	for ; s.pos < len(s.data); s.pos++ {
		c := s.data[s.pos]
		switch {
		case c == '"':
			raw := s.data[start:s.pos]
			s.pos++
			if escapes == 0 {
				return string(raw), true
			}
			return unescape(raw, len(raw)-escapes), true
		case c < 0x20 || c >= utf8.RuneSelf:
			return "", false
		case c == '\\':
			s.pos++
			if s.pos == len(s.data) {
				return "", false
			}
			switch s.data[s.pos] {
			case 'n', 'r', 't', '"', '\\', '/':
				escapes++
			default:
				return "", false
			}
		}
	}
	return "", false
}

// unescape decodes raw, whose escapes String has already checked, into a
// string of length n.
func unescape(raw []byte, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' {
			i++
			switch c = raw[i]; c {
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Int64 scans a plain integer.
func (s *Scanner) Int64() (int64, bool) {
	s.skipSpace()
	i, neg := s.pos, false
	if i < len(s.data) && s.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		if i-start == maxDigits {
			return 0, false
		}
		v = v*10 + int64(s.data[i]-'0')
	}
	if n := i - start; n == 0 || n > 1 && s.data[start] == '0' {
		return 0, false
	}
	if i < len(s.data) {
		switch s.data[i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	s.pos = i
	if neg {
		v = -v
	}
	return v, true
}

// Int scans a plain integer that fits an int.
func (s *Scanner) Int() (int, bool) {
	v, ok := s.Int64()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// Bool scans true or false.
func (s *Scanner) Bool() (bool, bool) {
	s.skipSpace()
	rest := s.data[s.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false, true
	}
	return false, false
}

// Ints scans an array of plain integers, appending them to dst.
func (s *Scanner) Ints(dst []int) ([]int, bool) {
	ok := s.Array(func() bool {
		v, ok := s.Int()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

// Seen tracks which known keys of one object have appeared, so that a
// repeated key sends the body to encoding/json.
type Seen uint64

// First marks key number i and reports whether it had not appeared yet.
func (k *Seen) First(i int) bool {
	bit := Seen(1) << i
	if *k&bit != 0 {
		return false
	}
	*k |= bit
	return true
}

// ---------------------------------------------------------------------------
// Appenders.

const hex = "0123456789abcdef"

// Sep appends the comma between two members, unless dst ends with the
// object's opening brace.
func Sep(dst []byte) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return dst
}

// Key appends Sep and then "key":. key must need no escaping.
func Key(dst []byte, key string) []byte {
	dst = append(Sep(dst), '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// AppendInts appends xs as an array, or null when xs is nil.
func AppendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// AppendStrings appends xs as an array of strings, or null when xs is nil.
func AppendStrings(dst []byte, xs []string) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, x)
	}
	return append(dst, ']')
}

// AppendString appends src as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on.
func AppendString(dst []byte, src string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(src[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// htmlSafe reports whether encoding/json writes the ASCII byte b unescaped.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
