package bench

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/latency"
	"condaccess/internal/scenario"
	"condaccess/internal/trace"
)

// plainResult and plainScenarioResult hold the fields of Result and
// ScenarioResult without their UnmarshalJSON methods, so encoding/json
// decodes them by reflection: the reference FuzzResultJSON holds the
// one-pass decoders to.
type plainResult Result

type plainScenarioResult struct {
	plainResult
	ScenarioName string
	Prefill      PhaseSegment
	Phases       []PhaseSegment
}

func (p plainScenarioResult) scenarioResult() ScenarioResult {
	return ScenarioResult{Result: Result(p.plainResult), ScenarioName: p.ScenarioName, Prefill: p.Prefill, Phases: p.Phases}
}

// awkwardNames are scenario and phase names that exercise every way
// json.Marshal writes a string: escaped quotes and backslashes, HTML
// characters and U+2028 as \u escapes, non-ASCII text as raw UTF-8, and
// control characters. "inv@lid" is replaced by invalid UTF-8 in the seeds.
var awkwardNames = []string{`quote " and \ backslash`, "<html> & co", "line\u2028separator", "größe 日本語", "tab\tnew\nline\x01", "inv@lid"}

// resultSeeds returns small real trial and scenario results as
// json.Marshal writes them, plus variants: indented, with raw invalid UTF-8
// and a raw U+2028 in the names, and cut in half. A few malformed inputs
// follow.
func resultSeeds(tb testing.TB) [][]byte {
	res, err := Run(Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 16, UpdatePct: 50, OpsPerThread: 12,
		Seed: 1, FootprintEvery: 8, RecordTail: true, RecordTimeline: true, TimelineWindow: 1024,
	})
	if err != nil {
		tb.Fatal(err)
	}
	named := res
	named.W.Dist = strings.Join(awkwardNames, "|")
	sres, err := RunScenario(ScenarioWorkload{
		DS: "list", Scheme: "hp", Threads: 2, KeyRange: 16, Seed: 3, RecordTail: true,
		Scenario: scenario.Scenario{
			Name: strings.Join(awkwardNames[:3], "|"),
			Phases: []scenario.Phase{
				{Name: awkwardNames[3], Ops: 6, Weights: scenario.Weights{Insert: 1}},
				{Name: strings.Join(awkwardNames[4:], "|"), Ops: 6, Weights: scenario.Weights{Delete: 1, Read: 1}},
			},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	indented, err := json.MarshalIndent(res, "", "\t")
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{indented}
	for _, v := range []any{res, named, sres} {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data,
			bytes.ReplaceAll(data, []byte("inv@lid"), []byte("inv\xffl\xc3id")),
			bytes.ReplaceAll(data, []byte(`\u2028`), []byte("\u2028")),
			data[:len(data)/2])
	}
	for _, s := range []string{`null`, `{}`, `{"Throughput":"fast"}`, `{"W":null}`, `[]`, ``} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestResultSeedsDecode: the real results among FuzzResultJSON's seeds decode
// through the one-pass decoders to what the reflective decoder makes of
// them, raw invalid UTF-8 and escaped names included, so the fuzz target
// starts from inputs both decoders accept.
func TestResultSeedsDecode(t *testing.T) {
	accepted := 0
	for _, data := range resultSeeds(t) {
		var r Result
		var sr ScenarioResult
		if r.UnmarshalJSON(data) == nil || sr.UnmarshalJSON(data) == nil {
			accepted++
		}
		checkAgainstReflection(t, data)
	}
	if want := 10; accepted != want {
		t.Fatalf("%d seeds decode, want the %d whole real results", accepted, want)
	}
}

// checkAgainstReflection fails t if either one-pass decoder accepts data
// and the reflective decoder rejects it or decodes a different value.
func checkAgainstReflection(t *testing.T, data []byte) {
	t.Helper()
	var got Result
	if err := got.UnmarshalJSON(data); err == nil {
		var want plainResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("Result decoder accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(got, Result(want)) {
			t.Fatalf("%q decodes to Result %+v, encoding/json to %+v", data, got, Result(want))
		}
	}
	var sgot ScenarioResult
	if err := sgot.UnmarshalJSON(data); err == nil {
		var want plainScenarioResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("ScenarioResult decoder accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(sgot, want.scenarioResult()) {
			t.Fatalf("%q decodes to ScenarioResult %+v, encoding/json to %+v", data, sgot, want.scenarioResult())
		}
	}
}

// FuzzResultJSON holds the one-pass Result and ScenarioResult decoders to
// encoding/json: whatever they accept, its reflective decode accepts too,
// with a deeply equal value. (They may reject more: unknown, repeated or
// reordered members, null where json.Marshal never writes one, signs on
// unsigned numbers.) The input also seeds a random Result and
// ScenarioResult. Their AppendJSON must write json.Marshal's bytes, which
// must round-trip; one time in eight a float of theirs is a NaN or an
// infinity, which both encoders must refuse.
//
// Fuzz it with a cap on minimization, as CI does:
//
//	go test ./internal/bench -run '^$' -fuzz=FuzzResultJSON -fuzztime=10s -fuzzminimizetime=100x
//
// The fuzzer minimizes every input that finds new coverage, and without
// the cap minimizing one whole result takes the whole budget.
func FuzzResultJSON(f *testing.F) {
	if got, want := reflect.TypeFor[plainScenarioResult]().NumField(), reflect.TypeFor[ScenarioResult]().NumField(); got != want {
		f.Fatalf("plainScenarioResult has %d fields, ScenarioResult %d: keep the reference in step", got, want)
	}
	for _, seed := range resultSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReflection(t, data)

		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		var sres ScenarioResult
		randomize(reflect.ValueOf(&sres).Elem(), rng)
		unsupported := rng.Intn(8) == 0
		if unsupported {
			floats := []*float64{&sres.Throughput, &sres.Latency.MeanCycles, &sres.Prefill.Throughput}
			for i := range sres.Phases {
				floats = append(floats, &sres.Phases[i].Throughput)
			}
			*floats[rng.Intn(len(floats))] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		for _, v := range []interface {
			AppendJSON([]byte) ([]byte, error)
		}{&sres.Result, &sres} {
			enc, err := json.Marshal(v)
			got, aerr := v.AppendJSON(nil)
			if (err == nil) != (aerr == nil) {
				t.Fatalf("json.Marshal error %v, AppendJSON error %v", err, aerr)
			}
			if err != nil {
				if !unsupported {
					t.Fatal(err)
				}
				continue
			}
			if string(got) != string(enc) {
				t.Fatalf("AppendJSON writes\n%s\njson.Marshal\n%s", got, enc)
			}
			back := reflect.New(reflect.TypeOf(v).Elem())
			if err := back.Interface().(json.Unmarshaler).UnmarshalJSON(enc); err != nil {
				t.Fatalf("json.Marshal output %s rejected: %v", enc, err)
			}
			if !reflect.DeepEqual(back.Interface(), v) {
				t.Fatalf("%s does not round-trip", enc)
			}
		}
	})
}

// randomize sets every exported field reachable from v to a random value
// json.Marshal can write and read back: finite floats, valid UTF-8, nil or
// non-empty slices (omitempty drops empty ones), histograms filled by
// Record and timelines with series of one length.
func randomize(v reflect.Value, rng *rand.Rand) {
	switch v.Type() {
	case reflect.TypeFor[latency.Hist]():
		h := v.Addr().Interface().(*latency.Hist)
		for range rng.Intn(20) {
			h.Record(rng.Uint64() >> rng.Intn(64))
		}
		return
	case reflect.TypeFor[trace.Timeline]():
		tl := v.Addr().Interface().(*trace.Timeline)
		tl.Window = rng.Uint64()
		if n := rng.Intn(4); n > 0 {
			for _, s := range []*[]uint64{&tl.Insert, &tl.Delete, &tl.Read, &tl.Retries, &tl.Pause} {
				*s = make([]uint64, n)
				for i := range *s {
					(*s)[i] = rng.Uint64() >> rng.Intn(64)
				}
			}
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int:
		v.SetInt(rng.Int63()>>rng.Intn(64) - rng.Int63()>>rng.Intn(64))
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float64:
		f := math.Float64frombits(rng.Uint64())
		switch rng.Intn(3) {
		case 0:
			f = float64(rng.Intn(1000)) / 8
		case 1:
			f = rng.NormFloat64() * 1e6
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		v.SetFloat(f)
	case reflect.String:
		var b strings.Builder
		for range rng.Intn(4) {
			if rng.Intn(2) == 0 {
				b.WriteString(awkwardNames[rng.Intn(len(awkwardNames))])
			} else {
				b.WriteRune(rune(rng.Intn(0x3000)))
			}
		}
		v.SetString(b.String())
	case reflect.Slice:
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := range n {
				randomize(v.Index(i), rng)
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			randomize(v.Elem(), rng)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				randomize(v.Field(i), rng)
			}
		}
	default:
		panic("randomize: unhandled kind " + v.Kind().String() + ": teach FuzzResultJSON about it")
	}
}
