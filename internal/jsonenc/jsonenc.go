// Package jsonenc writes the JSON that encoding/json writes for the store's
// result types in one pass, with no reflection: the mirror of package
// jsondec. An encoder is straight-line code over an Encoder: it opens an
// object, names each member in declaration order, writes each value with the
// method for its Go type, and closes the object.
//
// Each value comes out exactly as json.Marshal writes it. Numbers and
// booleans are appended with strconv, floats by encoding/json's rule, and a
// string of plain printable ASCII is copied as it stands. Any other string
// is handed to encoding/json as one token, so HTML characters, U+2028 and
// U+2029, control characters and invalid UTF-8 are escaped as encoding/json
// escapes them. The one value json.Marshal refuses here, a NaN or infinite
// float, is an error, and the first error sticks.
package jsonenc

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Encoder appends one JSON value to B.
type Encoder struct {
	B []byte
	// first is set while the innermost open object or array has no member
	// or element yet, so the next one takes no separating comma.
	first bool
	err   error
}

// Err returns the first error, or nil. B is not valid JSON once it is set.
func (e *Encoder) Err() error { return e.err }

// Begin opens an object.
func (e *Encoder) Begin() {
	e.B = append(e.B, '{')
	e.first = true
}

// Member writes the name and colon of the next member of the open object,
// and returns e, positioned at its value. name must be plain text, as Go
// field names and the json tags of the store's types are.
func (e *Encoder) Member(name string) *Encoder {
	if !e.first {
		e.B = append(e.B, ',')
	}
	e.first = false
	e.B = append(e.B, '"')
	e.B = append(e.B, name...)
	e.B = append(e.B, '"', ':')
	return e
}

// End closes an object.
func (e *Encoder) End() {
	e.B = append(e.B, '}')
	e.first = false
}

// Array opens an array, Elem starts each of its elements, and EndArray
// closes it.
func (e *Encoder) Array() {
	e.B = append(e.B, '[')
	e.first = true
}

// Elem starts the next element of the open array.
func (e *Encoder) Elem() {
	if !e.first {
		e.B = append(e.B, ',')
	}
	e.first = false
}

// EndArray closes an array.
func (e *Encoder) EndArray() {
	e.B = append(e.B, ']')
	e.first = false
}

// null writes null.
func (e *Encoder) null() { e.B = append(e.B, "null"...) }

// Slice writes s as an array, calling write on each element in place, or a
// nil s as null. An empty non-nil s is an empty array, as it is for
// encoding/json.
func Slice[T any](e *Encoder, s []T, write func(*T, *Encoder)) {
	if s == nil {
		e.null()
		return
	}
	e.Array()
	for i := range s {
		e.Elem()
		write(&s[i], e)
	}
	e.EndArray()
}

// Uints writes an array of unsigned integers, or a nil s as null.
func (e *Encoder) Uints(s []uint64) {
	if s == nil {
		e.null()
		return
	}
	e.Array()
	for _, v := range s {
		e.Elem()
		e.Uint(v)
	}
	e.EndArray()
}

// Uint writes an unsigned integer.
func (e *Encoder) Uint(v uint64) { e.B = strconv.AppendUint(e.B, v, 10) }

// Int writes an integer.
func (e *Encoder) Int(v int) { e.B = strconv.AppendInt(e.B, int64(v), 10) }

// Bool writes true or false.
func (e *Encoder) Bool(v bool) { e.B = strconv.AppendBool(e.B, v) }

// Float writes f as encoding/json writes a float64: the shortest decimal
// that reads back as f, in 'f' format, or in 'e' format when |f| is below
// 1e-6 or at least 1e21, with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). A NaN or an infinity is an error.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("jsonenc: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.B = strconv.AppendFloat(e.B, f, format, -1, 64)
	if n := len(e.B); format == 'e' && e.B[n-4] == 'e' && e.B[n-3] == '-' && e.B[n-2] == '0' {
		e.B[n-2] = e.B[n-1]
		e.B = e.B[:n-1]
	}
}

// Str writes a string. Plain printable ASCII with no '"', '\\', '<', '>'
// or '&' is copied as it stands; any other string is marshaled by
// encoding/json, so it is escaped exactly as json.Marshal escapes it.
func (e *Encoder) Str(s string) {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case b < ' ' || b > '~', b == '"', b == '\\', b == '<', b == '>', b == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			e.B = append(e.B, quoted...)
			return
		}
	}
	e.B = append(e.B, '"')
	e.B = append(e.B, s...)
	e.B = append(e.B, '"')
}
