package jsonio

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// scalar reads data as one value with walk, and with encoding/json into a
// T, and fails t unless the reader's verdict is want and, when it accepts,
// both read the same value.
func scalar[T any](t *testing.T, data string, want bool, walk func(*Codec, *T)) {
	t.Helper()
	var got T
	err := Read([]byte(data), "test", func(c *Codec) { walk(c, &got) })
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
		t.Errorf("%q: reads as %#v, encoding/json as %#v", data, got, ref)
	}
}

// same fails t unless walk appends exactly what json.Marshal writes for v,
// or both fail.
func same[T any](t *testing.T, v T, walk func(*Codec, *T)) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, err := Append(nil, func(c *Codec) { walk(c, &v) })
	if (werr == nil) != (err == nil) {
		t.Errorf("%#v: json.Marshal error %v, Append error %v", v, werr, err)
		return
	}
	if werr == nil && string(got) != string(want) {
		t.Errorf("%#v: Append writes %s, json.Marshal %s", v, got, want)
	}
}

func TestReadNumbers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"0", true}, {" 42 ", true}, {"18446744073709551615", true},
		{"18446744073709551616", false}, {"-1", false}, {"01", false}, {"1.0", false},
		{"1e3", false}, {"", false}, {"+1", false},
	} {
		scalar(t, c.in, c.want, (*Codec).Uint)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"-9223372036854775808", true}, {"9223372036854775807", true}, {"-0", true},
		{"9223372036854775808", false}, {"-9223372036854775809", false}, {"- 1", false}, {"-", false},
	} {
		scalar(t, c.in, c.want, (*Codec).Int)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"0", true}, {"-0", true}, {"12.5", true}, {"1e+21", true}, {"1E-7", true}, {"-0.000001", true},
		{"100000000000000000000", true}, {"123456789012345678901234567890", true}, {"4.9e-324", true},
		{"1e400", false}, {"01.5", false}, {".5", false}, {"1.", false}, {"1e", false}, {"NaN", false}, {"0x10", false},
	} {
		scalar(t, c.in, c.want, (*Codec).Float)
	}
	var neg float64
	if err := Read([]byte("-0"), "test", func(c *Codec) { c.Float(&neg) }); err != nil || !math.Signbit(neg) {
		t.Errorf("-0 reads as %v, %v; want negative zero", neg, err)
	}
}

func TestReadStrings(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{`""`, true}, {`"plain"`, true}, {`"größe 日本語"`, true}, {"\"raw\u2028sep\"", true},
		{`"q\"b\\s\/"`, true}, {`"<html> &"`, true}, {`" 😀"`, true},
		{"\"bad \xff utf8\"", true}, {"\"cut \xe6\x97\"", true},
		{`"unterminated`, false}, {`"bad \x escape"`, false}, {"\"ctl \x01\"", false}, {`'single'`, false},
	} {
		scalar(t, c.in, c.want, (*Codec).Str)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{{"true", true}, {" false", true}, {"True", false}, {"1", false}} {
		scalar(t, c.in, c.want, (*Codec).Bool)
	}
}

type pair struct {
	A uint64
	B []uint64 `json:",omitempty"`
}

func walkPair(c *Codec, p *pair) {
	c.Begin()
	c.Key("A").Uint(&p.A)
	if c.Opt("B", len(p.B) > 0) {
		c.Uints(&p.B)
	}
	c.End()
}

func walkPairs(c *Codec, s *[]pair) {
	Slice(c, s, func(p *pair, c *Codec) { walkPair(c, p) })
}

func TestReadObjectsAndArrays(t *testing.T) {
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
		scalar(t, c.in, c.want, walkPair)
	}
	for _, c := range []struct {
		in   string
		want bool
	}{{`[]`, true}, {`null`, true}, {`[{"A":1},{"A":2,"B":[3]}]`, true}, {`[{"A":1}{"A":2}]`, false}} {
		scalar(t, c.in, c.want, walkPairs)
	}
}

// TestReadErrorsStick: the first error is the one reported, with its offset
// and the read value's name, and later calls read nothing.
func TestReadErrorsStick(t *testing.T) {
	var p pair
	after := uint64(7)
	err := Read([]byte(`{"A":x,"B":[1]}`), "test: pair", func(c *Codec) {
		walkPair(c, &p)
		c.Uint(&after)
	})
	if err == nil || !strings.HasPrefix(err.Error(), "test: pair JSON at byte 5: want a digit") {
		t.Fatalf("error %v, want the first failure at byte 5", err)
	}
	if after != 7 || p.B != nil {
		t.Fatalf("reads after the error stored %d and %v", after, p.B)
	}
}

func TestAppendFloats(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 12.5, 1.0 / 3, 123456789.125,
		1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-10, 1e-100, 4.9e-324, math.SmallestNonzeroFloat64,
		1e20, 1e21, -1e21, 123456789e15, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		same(t, f, (*Codec).Float)
	}
}

func TestAppendStrings(t *testing.T) {
	for _, s := range []string{
		"", "plain text 123", "~!#$%^*()_+=-`[]{}|;:',./?", `quote " and \ backslash`,
		"<html> & co", "a < b", "a > b", "a & b", "line\u2028separator\u2029", "größe 日本語", "tab\tnew\nline\x01\x7f",
		"inv\xffl\xc3id", "\b\f\r",
	} {
		same(t, s, (*Codec).Str)
	}
}

func TestAppendIntegersAndBools(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxUint64} {
		same(t, v, (*Codec).Uint)
	}
	for _, v := range []int{0, -1, math.MinInt, math.MaxInt} {
		same(t, v, (*Codec).Int)
	}
	for _, v := range []bool{false, true} {
		same(t, v, (*Codec).Bool)
	}
	for _, v := range [][]uint64{nil, {}, {7}, {1, 2, 3}} {
		same(t, v, (*Codec).Uints)
	}
}

// TestAppendObjectsAndArrays: members and elements take commas between
// them, not before the first, at every level of nesting, and an omitempty
// member is left out when empty. What is written reads back.
func TestAppendObjectsAndArrays(t *testing.T) {
	type outer struct {
		X  int
		In []pair
		S  string
	}
	walk := func(c *Codec, v *outer) {
		c.Begin()
		c.Key("X").Int(&v.X)
		walkPairs(c.Key("In"), &v.In)
		c.Key("S").Str(&v.S)
		c.End()
	}
	v := outer{X: -3, In: []pair{{A: 1, B: []uint64{1, 2}}, {A: 2}, {B: []uint64{}}}, S: "s"}
	same(t, v, walk)
	data, _ := json.Marshal(v)
	scalar(t, string(data), true, walk)
}

// TestAppendErrorsStick: the first error is kept, and later values still
// append.
func TestAppendErrorsStick(t *testing.T) {
	nan, inf, one := math.NaN(), math.Inf(1), uint64(1)
	b, err := Append(nil, func(c *Codec) {
		c.Float(&nan)
		c.Float(&inf)
		c.Uint(&one)
	})
	if err == nil || err.Error() != "jsonio: unsupported value: NaN" || string(b) != "1" {
		t.Fatalf("error %v and %q, want the NaN one and the later value", err, b)
	}
}
