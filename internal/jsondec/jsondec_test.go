package jsondec

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// scalar decodes data as one value with read, and with encoding/json into
// a T, and fails t unless the cursor's verdict is want and, when it
// accepts, both decode the same value.
func scalar[T any](t *testing.T, data string, want bool, read func(*Cursor) T) {
	t.Helper()
	var got T
	err := Decode([]byte(data), "test", func(c *Cursor) { got = read(c) })
	if (err == nil) != want {
		t.Errorf("%q: accepted %v, want %v (err %v)", data, err == nil, want, err)
		return
	}
	if err != nil {
		return
	}
	var ref T
	if jerr := json.Unmarshal([]byte(data), &ref); jerr != nil {
		t.Errorf("%q: accepted, but encoding/json rejects it: %v", data, jerr)
	} else if !reflect.DeepEqual(got, ref) {
		t.Errorf("%q: decodes to %#v, encoding/json to %#v", data, got, ref)
	}
}

func TestNumbers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"0", true}, {" 42 ", true}, {"18446744073709551615", true},
		{"18446744073709551616", false}, {"-1", false}, {"01", false}, {"1.0", false},
		{"1e3", false}, {"", false}, {"+1", false},
	} {
		scalar(t, c.in, c.want, (*Cursor).Uint)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"-9223372036854775808", true}, {"9223372036854775807", true}, {"-0", true},
		{"9223372036854775808", false}, {"-9223372036854775809", false}, {"- 1", false}, {"-", false},
	} {
		scalar(t, c.in, c.want, (*Cursor).Int)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"0", true}, {"-0", true}, {"12.5", true}, {"1e+21", true}, {"1E-7", true}, {"-0.000001", true},
		{"100000000000000000000", true}, {"123456789012345678901234567890", true}, {"4.9e-324", true},
		{"1e400", false}, {"01.5", false}, {".5", false}, {"1.", false}, {"1e", false}, {"NaN", false}, {"0x10", false},
	} {
		scalar(t, c.in, c.want, (*Cursor).Float)
	}
	var neg float64
	if err := Decode([]byte("-0"), "test", func(c *Cursor) { neg = c.Float() }); err != nil || !math.Signbit(neg) {
		t.Errorf("-0 decodes to %v, %v; want negative zero", neg, err)
	}
}

func TestStrings(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{`""`, true}, {`"plain"`, true}, {`"größe 日本語"`, true}, {"\"raw\u2028sep\"", true},
		{`"q\"b\\s\/"`, true}, {`"<html> &"`, true}, {`" 😀"`, true},
		{"\"bad \xff utf8\"", true}, {"\"cut \xe6\x97\"", true},
		{`"unterminated`, false}, {`"bad \x escape"`, false}, {"\"ctl \x01\"", false}, {`'single'`, false},
	} {
		scalar(t, c.in, c.want, (*Cursor).Str)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{{"true", true}, {" false", true}, {"True", false}, {"1", false}} {
		scalar(t, c.in, c.want, (*Cursor).Bool)
	}
}

type pair struct {
	A uint64
	B []uint64 `json:",omitempty"`
}

func readPair(c *Cursor) (p pair) {
	c.Begin()
	p.A = c.Member("A").Uint()
	if c.Has("B") {
		p.B = c.Uints()
	}
	c.End()
	return p
}

func TestObjectsAndArrays(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{`{"A":1}`, true}, {`{"A":1,"B":[2,3]}`, true}, {" { \"A\" : 1 , \"B\" : [ ] } ", true},
		{`{"A":1,"B":null}`, true},
		{`{}`, false}, {`{"B":[2],"A":1}`, false}, {`{"A":1,"A":2}`, false}, {`{"A":1,"C":2}`, false},
		{`{"A":1,}`, false}, {`{"A":1,"B":[2,]}`, false}, {`{"A":1,"B":[,2]}`, false}, {`{"A":1 "B":[]}`, false},
		{`{"a":1}`, false}, {`{"A":1}}`, false}, {`{"A":1,"B":[1 2]}`, false},
		{`{"A"1}`, false}, {`null`, false},
	} {
		scalar(t, c.in, c.want, readPair)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{{`[]`, true}, {`null`, true}, {`[{"A":1},{"A":2,"B":[3]}]`, true}, {`[{"A":1}{"A":2}]`, false}} {
		scalar(t, c.in, c.want, func(c *Cursor) []pair {
			return Slice(c, func(p *pair, c *Cursor) { *p = readPair(c) })
		})
	}
}

// TestErrorsStick: the first error is the one reported, with its offset
// and the decoded value's name, and later calls return zero values.
func TestErrorsStick(t *testing.T) {
	var after uint64
	err := Decode([]byte(`{"A":x,"B":[1]}`), "test: pair", func(c *Cursor) {
		readPair(c)
		after = c.Uint()
	})
	if err == nil || !strings.HasPrefix(err.Error(), "test: pair JSON at byte 5: want a digit") {
		t.Fatalf("error %v, want the first failure at byte 5", err)
	}
	if after != 0 {
		t.Fatalf("a read after the error returned %d", after)
	}
}
