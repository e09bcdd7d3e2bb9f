// Package jsonio reads and writes the JSON that encoding/json writes for the
// store's types, in one pass and with no reflection. Each stored type has
// one walk: straight-line code over a Codec that opens an object, names
// each member in declaration order, visits each value with the method for
// its Go type, passing a pointer to the field, and closes the object. Run
// by Append, the walk writes the bytes json.Marshal writes for the value;
// run by Read, the same walk reads those bytes back into place. So each
// member is named once, for both directions.
//
// Written, each value comes out exactly as json.Marshal writes it. Numbers
// and booleans are appended with strconv, floats by encoding/json's rule,
// and a string of plain printable ASCII is copied as it stands. Any other
// string is handed to encoding/json as one token, so HTML characters,
// U+2028 and U+2029, control characters and invalid UTF-8 are escaped as
// encoding/json escapes them. The one value json.Marshal refuses here, a
// NaN or infinite float, is an error.
//
// Read, the input is held to the walk strictly. JSON whitespace may come
// between tokens, but only the member names the walk asks for, in the order
// it asks for them, and only unsigned integers where it reads a Uint. So a
// walk accepts a subset of what encoding/json accepts for the same type,
// and reads it to the same value.
//
// The first error sticks. A reader's later calls are no-ops, and Read
// reports the error with its byte offset.
//
// A Codec is one concrete type with a mode bit, not an interface with a
// reader and a writer behind it: the compiler cannot inline a call through
// an interface whose concrete type it cannot see, and every &r.Field a walk
// passed through one would escape to the heap. The writer pays for the
// branch instead, since a method that serves both modes is too large to
// inline.
package jsonio

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Codec is a walk's position: the writer's output, or the reader's input
// and offset. The zero Codec with B set is a writer appending to B.
type Codec struct {
	B   []byte
	off int // the reader's position in B
	// first is set while the innermost open object or array has no member
	// or element yet, so the next one takes no separating comma.
	first    bool
	decoding bool
	err      error
}

// Append runs walk as a writer, appending the JSON to dst. Like
// json.Marshal, it fails on a NaN or infinite float. Its call of walk is
// indirect, so the Codec moves to the heap; a walk that makes no indirect
// call of its own (Slice and Ptr make them) keeps it on the stack when it
// is called directly on a Codec{B: dst}.
func Append(dst []byte, walk func(*Codec)) ([]byte, error) {
	c := Codec{B: dst}
	walk(&c)
	return c.B, c.err
}

// Read runs walk as a reader of data, which must hold one JSON value and
// nothing else past whitespace. The walk's target must be the zero value: a
// reader leaves an omitted member, and a null slice or pointer, as it finds
// it. what names the value in errors, e.g. "latency: histogram".
func Read(data []byte, what string, walk func(*Codec)) error {
	c := Codec{B: data, decoding: true}
	walk(&c)
	if c.skipSpace(); c.err == nil && c.off != len(c.B) {
		c.Fail("trailing bytes after the value")
	}
	if c.err != nil {
		return fmt.Errorf("%s %w", what, c.err)
	}
	return nil
}

// Decoding reports whether c reads.
func (c *Codec) Decoding() bool { return c.decoding }

// Err returns the first error, or nil. A writer's B is not valid JSON once
// it is set.
func (c *Codec) Err() error { return c.err }

// Fail records an error at the reader's offset unless one is recorded
// already.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("JSON at byte %d: %s", c.off, fmt.Sprintf(format, args...))
	}
}

// Begin opens an object.
func (c *Codec) Begin() { c.open('{') }

// Array opens an array. A writer then starts each element with Elem and
// closes it with EndArray; a reader steps through it with Next.
func (c *Codec) Array() { c.open('[') }

func (c *Codec) open(b byte) {
	if !c.decoding {
		c.B = append(c.B, b)
	} else if c.err == nil && !c.eat(b) {
		c.Fail("want '%c'", b)
	}
	c.first = true
}

// End closes an object. A reader fails here on any member the walk did not
// ask for.
func (c *Codec) End() {
	if !c.decoding {
		c.B = append(c.B, '}')
	} else if c.err == nil && !c.eat('}') {
		c.Fail("want '}': unknown, repeated or out-of-order member")
	}
	c.first = false
}

// Key names the next member, one that is always there, and returns c at
// its value. name must be plain text, as Go field names and the json tags
// of the store's types are.
func (c *Codec) Key(name string) *Codec {
	if !c.decoding {
		c.key(name)
	} else if !c.has(name) {
		c.Fail("want member %q", name)
	}
	return c
}

// Opt names the next member if it is there, for an omitempty field, and
// reports whether its value follows. A writer writes name when present is
// true; a reader consumes name if it comes next.
func (c *Codec) Opt(name string, present bool) bool {
	if c.decoding {
		return c.has(name)
	}
	if present {
		c.key(name)
	}
	return present
}

func (c *Codec) key(name string) {
	c.Elem()
	c.B = append(c.B, '"')
	c.B = append(c.B, name...)
	c.B = append(c.B, '"', ':')
}

// Elem starts a writer's next array element.
func (c *Codec) Elem() {
	if !c.first {
		c.B = append(c.B, ',')
	}
	c.first = false
}

// EndArray closes a writer's array.
func (c *Codec) EndArray() {
	c.B = append(c.B, ']')
	c.first = false
}

// Null is a null where a slice or pointer is nil. A writer writes one when
// isNil is true and reports isNil; a reader consumes one if it comes next
// and reports whether it did.
func (c *Codec) Null(isNil bool) bool {
	if c.decoding {
		return c.err == nil && c.literal("null")
	}
	if isNil {
		c.B = append(c.B, "null"...)
	}
	return isNil
}

// Slice walks the elements of *s in place as an array, or a nil *s as
// null. A reader makes an empty array an empty non-nil slice, as
// encoding/json does.
func Slice[T any](c *Codec, s *[]T, walk func(*T, *Codec)) {
	if c.Null(*s == nil) {
		return
	}
	c.Array()
	if c.decoding {
		v := []T{}
		for c.Next() {
			v = append(v, *new(T))
			walk(&v[len(v)-1], c)
		}
		*s = v
		return
	}
	for i := range *s {
		c.Elem()
		walk(&(*s)[i], c)
	}
	c.EndArray()
}

// Ptr walks the target of *p, or a nil *p as null. A reader reads a value
// into a new T.
func Ptr[T any](c *Codec, p **T, walk func(*T, *Codec)) {
	if c.Null(*p == nil) {
		return
	}
	if c.decoding {
		*p = new(T)
	}
	walk(*p, c)
}

// Uints walks an array of unsigned integers, or a nil slice as null.
func (c *Codec) Uints(p *[]uint64) { Slice(c, p, uintElem) }

func uintElem(v *uint64, c *Codec) { c.Uint(v) }

// Uint walks an unsigned integer. A reader takes no sign, fraction or
// exponent, and at most 2^64-1.
func (c *Codec) Uint(p *uint64) {
	if !c.decoding {
		c.B = strconv.AppendUint(c.B, *p, 10)
	} else if c.err == nil {
		c.skipSpace()
		*p = c.magnitude()
	}
}

// Int walks an integer, with an optional minus sign, that fits an int.
func (c *Codec) Int(p *int) {
	if !c.decoding {
		c.B = strconv.AppendInt(c.B, int64(*p), 10)
	} else if c.err == nil {
		*p = c.readInt()
	}
}

// Bool walks true or false.
func (c *Codec) Bool(p *bool) {
	if !c.decoding {
		c.B = strconv.AppendBool(c.B, *p)
		return
	}
	switch {
	case c.err != nil:
	case c.literal("true"):
		*p = true
	case c.literal("false"):
		*p = false
	default:
		c.Fail("want true or false")
	}
}

// Float walks a float64. A writer writes *p as encoding/json does: the
// shortest decimal that reads back as *p, in 'f' format, or in 'e' format
// when |*p| is below 1e-6 or at least 1e21, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07); a NaN or an infinity is an error. A
// reader reads any JSON number into the float64 strconv.ParseFloat makes of
// it, as encoding/json does.
func (c *Codec) Float(p *float64) {
	if c.decoding {
		*p = c.readFloat()
		return
	}
	f := *p
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if c.err == nil {
			c.err = fmt.Errorf("jsonio: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	c.B = strconv.AppendFloat(c.B, f, format, -1, 64)
	if n := len(c.B); format == 'e' && c.B[n-4] == 'e' && c.B[n-3] == '-' && c.B[n-2] == '0' {
		c.B[n-2] = c.B[n-1]
		c.B = c.B[:n-1]
	}
}

// Str walks a string. A writer copies plain printable ASCII with no '"',
// '\\', '<', '>' or '&' as it stands, and a reader plain text (valid UTF-8
// with no escape and no control character). Any other string is handed to
// encoding/json, so it is escaped and unescaped exactly as encoding/json
// does it, a reader turning invalid UTF-8 into U+FFFD.
func (c *Codec) Str(p *string) {
	if c.decoding {
		*p = c.readStr()
		return
	}
	s := *p
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case b < ' ' || b > '~', b == '"', b == '\\', b == '<', b == '>', b == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			c.B = append(c.B, quoted...)
			return
		}
	}
	c.B = append(c.B, '"')
	c.B = append(c.B, s...)
	c.B = append(c.B, '"')
}

// The reader's scanning follows.

// skipSpace advances past JSON whitespace.
func (c *Codec) skipSpace() {
	for c.off < len(c.B) && c.B[c.off] <= ' ' && isSpace(c.B[c.off]) {
		c.off++
	}
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// eat consumes b if it is the next byte past any whitespace.
func (c *Codec) eat(b byte) bool {
	c.skipSpace()
	if c.off < len(c.B) && c.B[c.off] == b {
		c.off++
		return true
	}
	return false
}

// literal consumes word if it comes next past any whitespace.
func (c *Codec) literal(word string) bool {
	c.skipSpace()
	if len(c.B)-c.off >= len(word) && string(c.B[c.off:c.off+len(word)]) == word {
		c.off += len(word)
		return true
	}
	return false
}

// has consumes the next member's name and colon if that member is called
// name, and reports whether it did.
func (c *Codec) has(name string) bool {
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
	if n >= len(c.B) || c.B[c.off] != '"' || string(c.B[c.off+1:n]) != name || c.B[n] != '"' {
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

// Next reports whether another element of a reader's open array follows,
// consuming the comma before it, or consumes the closing bracket and
// returns false.
func (c *Codec) Next() bool {
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

// NextUint reads the next element of a reader's open array of unsigned
// integers into *p and reports whether there was one, as Next and Uint
// would in two calls, or consumes the closing bracket and returns false. It
// returns false on an error too.
func (c *Codec) NextUint(p *uint64) bool {
	if !c.Next() {
		return false
	}
	c.skipSpace()
	*p = c.magnitude()
	return c.err == nil
}

// magnitude reads the digits of a number's integer part into a uint64:
// "0", or a run of digits that does not start with 0. The scan runs on
// locals, which stay in registers, and writes the offset back once.
func (c *Codec) magnitude() uint64 {
	b, start := c.B, c.off
	i := start
	var v uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		// v*10 + d overflows iff v > (MaxUint64-d)/10: one compare against
		// a constant first, as strconv does.
		if v >= math.MaxUint64/10 && (v > math.MaxUint64/10 || d > math.MaxUint64%10) {
			c.off = i
			c.Fail("number overflows uint64")
			return 0
		}
		v = v*10 + d
	}
	c.off = i
	c.checkRun(start)
	return v
}

// checkRun checks the integer part that starts at start.
func (c *Codec) checkRun(start int) {
	switch {
	case c.off == start:
		c.Fail("want a digit")
	case c.B[start] == '0' && c.off-start > 1:
		c.Fail("number has a leading zero")
	}
}

// digits consumes a run of decimal digits.
func (c *Codec) digits() {
	for c.off < len(c.B) && c.B[c.off]-'0' <= 9 {
		c.off++
	}
}

// fraction consumes the digits of a fraction or an exponent: at least one,
// leading zeros allowed.
func (c *Codec) fraction() {
	start := c.off
	if c.digits(); c.off == start {
		c.Fail("want a digit")
	}
}

func (c *Codec) readInt() int {
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

func (c *Codec) readFloat() float64 {
	if c.err != nil {
		return 0
	}
	c.skipSpace()
	start := c.off
	if c.off < len(c.B) && c.B[c.off] == '-' {
		c.off++
	}
	// The integer part is only checked: it may overflow a uint64 in a float.
	intStart := c.off
	c.digits()
	c.checkRun(intStart)
	if c.err == nil && c.off < len(c.B) && c.B[c.off] == '.' {
		c.off++
		c.fraction()
	}
	if c.err == nil && c.off < len(c.B) && (c.B[c.off] == 'e' || c.B[c.off] == 'E') {
		c.off++
		if c.off < len(c.B) && (c.B[c.off] == '+' || c.B[c.off] == '-') {
			c.off++
		}
		c.fraction()
	}
	if c.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(c.B[start:c.off]), 64)
	if err != nil {
		c.Fail("number out of float64 range")
		return 0
	}
	return f
}

func (c *Codec) readStr() string {
	if c.err != nil {
		return ""
	}
	if !c.eat('"') {
		c.Fail("want a string")
		return ""
	}
	start := c.off
	for i := start; i < len(c.B); {
		switch b := c.B[i]; {
		case b == '"':
			c.off = i + 1
			return string(c.B[start:i])
		case b == '\\' || b < ' ':
			return c.escaped(start - 1)
		case b < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(c.B[i:])
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
func (c *Codec) escaped(quote int) string {
	end := quote + 1
	for ; end < len(c.B) && c.B[end] != '"'; end++ {
		if c.B[end] == '\\' {
			end++
		}
	}
	if end >= len(c.B) {
		c.Fail("unterminated string")
		return ""
	}
	var s string
	if err := json.Unmarshal(c.B[quote:end+1], &s); err != nil {
		c.Fail("bad string: %v", err)
		return ""
	}
	c.off = end + 1
	return s
}
