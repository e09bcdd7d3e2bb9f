package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func valid() Scenario {
	return Scenario{
		Name: "t",
		Phases: []Phase{
			{Name: "a", Ops: 10, Weights: Weights{Insert: 1, Delete: 1, Read: 2}},
			{Name: "b", Cycles: 5000, Weights: Weights{Read: 1}},
		},
		Roles: []Role{
			{Name: "w", Count: 2, Weights: &Weights{Insert: 1, Delete: 1}},
			{Name: "r", Count: 0},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	s := valid()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Scenario){
		"no phases":          func(s *Scenario) { s.Phases = nil },
		"ops and cycles":     func(s *Scenario) { s.Phases[0].Cycles = 100 },
		"neither duration":   func(s *Scenario) { s.Phases[0].Ops = 0 },
		"negative ops":       func(s *Scenario) { s.Phases[0].Ops = -1; s.Phases[0].Cycles = 100 },
		"negative weight":    func(s *Scenario) { s.Phases[0].Weights.Insert = -1 },
		"zero-sum weights":   func(s *Scenario) { s.Phases[0].Weights = Weights{} },
		"key shift too big":  func(s *Scenario) { s.Phases[0].KeyShift = 1 },
		"key shift negative": func(s *Scenario) { s.Phases[0].KeyShift = -0.1 },
		"key shift NaN":      func(s *Scenario) { s.Phases[0].KeyShift = math.NaN() },
		"bad profile kind":   func(s *Scenario) { s.Phases[0].Profile.Kind = "poisson" },
		"burst no period":    func(s *Scenario) { s.Phases[0].Profile = Profile{Kind: ProfileBurst} },
		"burst len > period": func(s *Scenario) { s.Phases[0].Profile = Profile{Kind: ProfileBurst, Period: 4, Len: 5} },
		"piecewise no steps": func(s *Scenario) { s.Phases[0].Profile = Profile{Kind: ProfilePiecewise} },
		"piecewise zero-ops mid-step": func(s *Scenario) {
			s.Phases[0].Profile = Profile{Kind: ProfilePiecewise, Steps: []Step{{Ops: 0, Work: 5}, {Ops: 5, Work: 1}}}
		},
		"negative role count": func(s *Scenario) { s.Roles[0].Count = -2 },
		"two catch-alls":      func(s *Scenario) { s.Roles[0].Count = 0 },
		"bad role weights":    func(s *Scenario) { s.Roles[0].Weights = &Weights{} },
	}
	for name, mutate := range cases {
		s := valid()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMinThreads(t *testing.T) {
	s := valid()
	if got := s.MinThreads(); got != 3 { // 2 writers + 1 for the catch-all
		t.Errorf("MinThreads = %d, want 3", got)
	}
	s.Roles = nil
	if got := s.MinThreads(); got != 1 {
		t.Errorf("no roles: MinThreads = %d, want 1", got)
	}
	for name, p := range Presets() {
		if p.MinThreads() > 4 {
			t.Errorf("preset %s needs %d threads; presets should fit small machines", name, p.MinThreads())
		}
	}
}

func TestTotalOpsHint(t *testing.T) {
	s := valid()
	if n, ok := s.TotalOpsHint(); ok || n != 10 {
		t.Errorf("cycle-bounded phase: hint = %d,%v; want 10,false", n, ok)
	}
	s.Phases[1] = Phase{Name: "b", Ops: 7, Weights: Weights{Read: 1}}
	if n, ok := s.TotalOpsHint(); !ok || n != 17 {
		t.Errorf("hint = %d,%v; want 17,true", n, ok)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := valid()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, back)
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	data, err := json.Marshal(valid())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || len(s.Phases) != 2 {
		t.Fatalf("loaded %+v", s)
	}

	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"name":"x","phases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Error("structurally invalid scenario accepted")
	}
}

func TestPresetLookup(t *testing.T) {
	names := PresetNames()
	if len(names) < 4 {
		t.Fatalf("only %d presets", len(names))
	}
	for _, n := range names {
		if _, err := Preset(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}
