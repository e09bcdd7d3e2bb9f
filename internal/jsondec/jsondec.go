// Package jsondec reads the JSON that encoding/json writes for the store's
// result types in one pass, with no reflection and no validating prescan.
// A decoder is straight-line code over a Cursor: it opens an object, names
// each member in declaration order, reads each value with the method for
// its Go type, and closes the object. The first mismatch sticks: every
// later call is a no-op that returns a zero value, and Decode reports the
// error with its byte offset.
//
// The Cursor is strict. It accepts JSON whitespace between tokens, but only
// the member names it is asked for, in the order it is asked for them, and
// only unsigned integers where it reads a Uint. So a decoder built on it
// accepts a subset of what encoding/json accepts for the same type, and
// decodes it to the same value.
package jsondec

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Cursor is a decoder's position in its input.
type Cursor struct {
	data []byte
	off  int
	// first is set while the innermost open object or array has no member
	// or element yet, so the next one takes no separating comma.
	first bool
	what  string // names the decoded value in errors
	err   error
}

// Decode runs read over data, which must hold one JSON value and nothing
// else past whitespace. what names the value in errors, e.g.
// "latency: histogram".
func Decode(data []byte, what string, read func(*Cursor)) error {
	c := Cursor{data: data, what: what}
	read(&c)
	if c.skipSpace(); c.err == nil && c.off != len(c.data) {
		c.Fail("trailing bytes after the value")
	}
	return c.err
}

// Err returns the first error, or nil.
func (c *Cursor) Err() error { return c.err }

// Fail records an error at the current offset unless one is recorded
// already.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s JSON at byte %d: %s", c.what, c.off, fmt.Sprintf(format, args...))
	}
}

// skipSpace advances past JSON whitespace.
func (c *Cursor) skipSpace() {
	for c.off < len(c.data) && c.data[c.off] <= ' ' && isSpace(c.data[c.off]) {
		c.off++
	}
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// eat consumes b if it is the next byte past any whitespace.
func (c *Cursor) eat(b byte) bool {
	c.skipSpace()
	if c.off < len(c.data) && c.data[c.off] == b {
		c.off++
		return true
	}
	return false
}

// literal consumes word if it comes next past any whitespace.
func (c *Cursor) literal(word string) bool {
	c.skipSpace()
	if len(c.data)-c.off >= len(word) && string(c.data[c.off:c.off+len(word)]) == word {
		c.off += len(word)
		return true
	}
	return false
}

// Begin opens an object.
func (c *Cursor) Begin() {
	if c.err == nil && !c.eat('{') {
		c.Fail("want '{'")
	}
	c.first = true
}

// Has consumes the next member's name and colon if that member is called
// name, and reports whether it did. A decoder asks for an optional member
// (an omitempty field) with Has and reads its value when it is there.
func (c *Cursor) Has(name string) bool {
	if c.err != nil {
		return false
	}
	save := c.off
	if !c.first && !c.eat(',') {
		c.off = save
		return false
	}
	c.skipSpace()
	n := c.off + 1 + len(name)
	if n >= len(c.data) || c.data[c.off] != '"' || string(c.data[c.off+1:n]) != name || c.data[n] != '"' {
		c.off = save
		return false
	}
	c.off = n + 1
	if !c.eat(':') {
		c.Fail("want ':' after member %q", name)
		return false
	}
	c.first = false
	return true
}

// Member consumes the name and colon of a member that must come next, and
// returns c, positioned at its value.
func (c *Cursor) Member(name string) *Cursor {
	if !c.Has(name) {
		c.Fail("want member %q", name)
	}
	return c
}

// End closes an object. Any member not asked for is an error here.
func (c *Cursor) End() {
	if c.err == nil && !c.eat('}') {
		c.Fail("want '}': unknown, repeated or out-of-order member")
	}
	c.first = false
}

// Array opens an array; Next steps through its elements.
func (c *Cursor) Array() {
	if c.err == nil && !c.eat('[') {
		c.Fail("want '['")
	}
	c.first = true
}

// Next reports whether another element of the open array follows,
// consuming the comma before it, or consumes the closing bracket and
// returns false.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.eat(']') {
		c.first = false
		return false
	}
	if !c.first && !c.eat(',') {
		c.Fail("want ',' or ']'")
		return false
	}
	c.first = false
	return true
}

// Null consumes a null if one comes next, and reports whether it did.
func (c *Cursor) Null() bool {
	return c.err == nil && c.literal("null")
}

// Slice reads an array, calling read on each element in place, or a null,
// which reads as a nil slice. An empty array reads as an empty non-nil
// slice, as it does for encoding/json.
func Slice[T any](c *Cursor, read func(*T, *Cursor)) []T {
	if c.Null() {
		return nil
	}
	s := []T{}
	c.Array()
	for c.Next() {
		var zero T
		s = append(s, zero)
		read(&s[len(s)-1], c)
	}
	return s
}

// Ptr reads a null as a nil pointer, or a value into a new T.
func Ptr[T any](c *Cursor, read func(*T, *Cursor)) *T {
	if c.Null() {
		return nil
	}
	p := new(T)
	read(p, c)
	return p
}

// Uints reads an array of unsigned integers, or a null.
func (c *Cursor) Uints() []uint64 {
	return Slice(c, func(v *uint64, c *Cursor) { *v = c.Uint() })
}

// magnitude reads the digits of a number's integer part into a uint64:
// "0", or a run of digits that does not start with 0.
func (c *Cursor) magnitude() uint64 {
	start := c.off
	var v uint64
	for ; c.off < len(c.data); c.off++ {
		d := uint64(c.data[c.off] - '0')
		if d > 9 {
			break
		}
		if v > (math.MaxUint64-d)/10 {
			c.Fail("number overflows uint64")
			return 0
		}
		v = v*10 + d
	}
	c.checkRun(start)
	return v
}

// integer consumes the digits of a number's integer part without reading
// them, which may overflow a uint64 in a float.
func (c *Cursor) integer() {
	start := c.off
	c.digits()
	c.checkRun(start)
}

// checkRun checks the integer part that starts at start.
func (c *Cursor) checkRun(start int) {
	switch {
	case c.off == start:
		c.Fail("want a digit")
	case c.data[start] == '0' && c.off-start > 1:
		c.Fail("number has a leading zero")
	}
}

// digits consumes a run of decimal digits.
func (c *Cursor) digits() {
	for c.off < len(c.data) && c.data[c.off]-'0' <= 9 {
		c.off++
	}
}

// fraction consumes the digits of a fraction or an exponent: at least one,
// leading zeros allowed.
func (c *Cursor) fraction() {
	start := c.off
	if c.digits(); c.off == start {
		c.Fail("want a digit")
	}
}

// Uint reads an unsigned integer: no sign, fraction or exponent, and at
// most 2^64-1.
func (c *Cursor) Uint() uint64 {
	if c.err != nil {
		return 0
	}
	c.skipSpace()
	return c.magnitude()
}

// Int reads an integer, with an optional minus sign, that fits an int.
func (c *Cursor) Int() int {
	if c.err != nil {
		return 0
	}
	neg := c.eat('-')
	mag := c.magnitude()
	switch {
	case neg && mag <= math.MaxInt+1:
		return int(-mag)
	case !neg && mag <= math.MaxInt:
		return int(mag)
	}
	c.Fail("number overflows int")
	return 0
}

// Float reads a JSON number into the float64 strconv.ParseFloat makes of
// it, as encoding/json does.
func (c *Cursor) Float() float64 {
	if c.err != nil {
		return 0
	}
	c.skipSpace()
	start := c.off
	if c.off < len(c.data) && c.data[c.off] == '-' {
		c.off++
	}
	c.integer()
	if c.err == nil && c.off < len(c.data) && c.data[c.off] == '.' {
		c.off++
		c.fraction()
	}
	if c.err == nil && c.off < len(c.data) && (c.data[c.off] == 'e' || c.data[c.off] == 'E') {
		c.off++
		if c.off < len(c.data) && (c.data[c.off] == '+' || c.data[c.off] == '-') {
			c.off++
		}
		c.fraction()
	}
	if c.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(c.data[start:c.off]), 64)
	if err != nil {
		c.Fail("number out of float64 range")
		return 0
	}
	return f
}

// Bool reads true or false.
func (c *Cursor) Bool() bool {
	switch {
	case c.err != nil:
	case c.literal("true"):
		return true
	case !c.literal("false"):
		c.Fail("want true or false")
	}
	return false
}

// Str reads a string. A string of plain text (valid UTF-8 with no escape
// and no control character) is copied as it stands; any other string token
// is handed to encoding/json, so it decodes exactly as it would there,
// invalid UTF-8 turning into U+FFFD.
func (c *Cursor) Str() string {
	if c.err != nil {
		return ""
	}
	if !c.eat('"') {
		c.Fail("want a string")
		return ""
	}
	start := c.off
	for i := start; i < len(c.data); {
		switch b := c.data[i]; {
		case b == '"':
			c.off = i + 1
			return string(c.data[start:i])
		case b == '\\' || b < ' ':
			return c.escaped(start - 1)
		case b < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(c.data[i:])
			if r == utf8.RuneError && n == 1 {
				return c.escaped(start - 1)
			}
			i += n
		}
	}
	c.Fail("unterminated string")
	return ""
}

// escaped decodes the string token that opens at quote with encoding/json.
func (c *Cursor) escaped(quote int) string {
	end := quote + 1
	for ; end < len(c.data) && c.data[end] != '"'; end++ {
		if c.data[end] == '\\' {
			end++
		}
	}
	if end >= len(c.data) {
		c.Fail("unterminated string")
		return ""
	}
	var s string
	if err := json.Unmarshal(c.data[quote:end+1], &s); err != nil {
		c.Fail("bad string: %v", err)
		return ""
	}
	c.off = end + 1
	return s
}
