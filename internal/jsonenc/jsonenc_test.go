package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// same fails t unless write appends exactly what json.Marshal writes for v,
// or both fail.
func same[T any](t *testing.T, v T, write func(*Encoder, T)) {
	t.Helper()
	want, werr := json.Marshal(v)
	var e Encoder
	write(&e, v)
	if (werr == nil) != (e.Err() == nil) {
		t.Errorf("%#v: json.Marshal error %v, Encoder error %v", v, werr, e.Err())
		return
	}
	if werr == nil && string(e.B) != string(want) {
		t.Errorf("%#v: Encoder writes %s, json.Marshal %s", v, e.B, want)
	}
}

func TestFloats(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 12.5, 1.0 / 3, 123456789.125,
		1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-10, 1e-100, 4.9e-324, math.SmallestNonzeroFloat64,
		1e20, 1e21, -1e21, 123456789e15, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		same(t, f, (*Encoder).Float)
	}
}

func TestStrings(t *testing.T) {
	for _, s := range []string{
		"", "plain text 123", "~!#$%^*()_+=-`[]{}|;:',./?", `quote " and \ backslash`,
		"<html> & co", "a < b", "a > b", "a & b", "line\u2028separator\u2029", "größe 日本語", "tab\tnew\nline\x01\x7f",
		"inv\xffl\xc3id", "\b\f\r",
	} {
		same(t, s, (*Encoder).Str)
	}
}

func TestIntegersAndBools(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxUint64} {
		same(t, v, (*Encoder).Uint)
	}
	for _, v := range []int{0, -1, math.MinInt, math.MaxInt} {
		same(t, v, (*Encoder).Int)
	}
	for _, v := range []bool{false, true} {
		same(t, v, (*Encoder).Bool)
	}
	for _, v := range [][]uint64{nil, {}, {7}, {1, 2, 3}} {
		same(t, v, (*Encoder).Uints)
	}
}

// TestObjectsAndArrays: members and elements take commas between them, not
// before the first, at every level of nesting.
func TestObjectsAndArrays(t *testing.T) {
	type inner struct {
		A []uint64
		B bool
	}
	type outer struct {
		X  int
		In []inner
		S  string
	}
	v := outer{X: -3, In: []inner{{A: []uint64{1, 2}}, {B: true}, {A: []uint64{}}}, S: "s"}
	same(t, v, func(e *Encoder, v outer) {
		e.Begin()
		e.Member("X").Int(v.X)
		Slice(e.Member("In"), v.In, func(in *inner, e *Encoder) {
			e.Begin()
			e.Member("A").Uints(in.A)
			e.Member("B").Bool(in.B)
			e.End()
		})
		e.Member("S").Str(v.S)
		e.End()
	})
}

// TestErrorsStick: the first error is kept, and later values still append.
func TestErrorsStick(t *testing.T) {
	var e Encoder
	e.Float(math.NaN())
	e.Float(math.Inf(1))
	e.Uint(1)
	if e.Err() == nil || e.Err().Error() != "jsonenc: unsupported value: NaN" {
		t.Fatalf("error %v, want the NaN one", e.Err())
	}
}
