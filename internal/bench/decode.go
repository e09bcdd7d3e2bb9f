// The stored-result decoder. A warm store hit decodes one Result, and
// encoding/json spends most of that time validating the bytes in a prescan
// and walking them by reflection. The methods here read the bytes
// json.Marshal writes in one pass instead, straight into the value: members
// in declaration order, each present unless it is omitempty, with JSON
// whitespace between tokens. They accept a subset of what encoding/json
// accepts and decode it to the same value (FuzzResultJSON). A stored
// payload's fingerprint already proves its bytes are what the writer wrote,
// so anything else is a defect, and the store turns the error into a miss.
//
// A field added to Result or to a type it carries must be read here too;
// TestStoreSchemaTracksResultShape and the round-trip tests fail until it
// is.

package bench

import (
	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/jsondec"
	"condaccess/internal/latency"
	"condaccess/internal/mem"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// UnmarshalJSON decodes the JSON json.Marshal writes for a Result in one
// pass, with no reflection. On error r is left unchanged.
func (r *Result) UnmarshalJSON(data []byte) error {
	var out Result
	if err := jsondec.Decode(data, "bench: result", out.read); err != nil {
		return err
	}
	*r = out
	return nil
}

// UnmarshalJSON decodes a ScenarioResult as Result.UnmarshalJSON decodes a
// Result. It has to be its own method: the one promoted from the embedded
// Result knows nothing of ScenarioName, Prefill and Phases.
func (sr *ScenarioResult) UnmarshalJSON(data []byte) error {
	var out ScenarioResult
	if err := jsondec.Decode(data, "bench: scenario result", out.read); err != nil {
		return err
	}
	*sr = out
	return nil
}

func (r *Result) read(c *jsondec.Cursor) {
	c.Begin()
	r.members(c)
	c.End()
}

// read reads the embedded Result's members inline, where encoding/json
// writes them, then the scenario's own.
func (sr *ScenarioResult) read(c *jsondec.Cursor) {
	c.Begin()
	sr.Result.members(c)
	sr.ScenarioName = c.Member("ScenarioName").Str()
	sr.Prefill.read(c.Member("Prefill"))
	sr.Phases = jsondec.Slice(c.Member("Phases"), (*PhaseSegment).read)
	c.End()
}

func (r *Result) members(c *jsondec.Cursor) {
	r.W.read(c.Member("W"))
	r.PrefillSize = c.Member("PrefillSize").Int()
	r.Ops = c.Member("Ops").Uint()
	r.Cycles = c.Member("Cycles").Uint()
	r.Throughput = c.Member("Throughput").Float()
	r.Retries = c.Member("Retries").Uint()
	readCacheStats(c.Member("Cache"), &r.Cache)
	readCAStats(c.Member("CA"), &r.CA)
	readSMRStats(c.Member("SMR"), &r.SMR)
	readMemStats(c.Member("Mem"), &r.Mem)
	r.Footprint = jsondec.Slice(c.Member("Footprint"), (*FootprintSample).read)
	r.Latency.read(c.Member("Latency"))
	if c.Has("Tail") {
		r.Tail = jsondec.Ptr(c, (*latency.Tail).ReadJSON)
	}
	if c.Has("Timeline") {
		r.Timeline = jsondec.Ptr(c, (*trace.Timeline).ReadJSON)
	}
}

func (w *Workload) read(c *jsondec.Cursor) {
	c.Begin()
	w.DS = c.Member("DS").Str()
	w.Scheme = c.Member("Scheme").Str()
	w.Threads = c.Member("Threads").Int()
	w.KeyRange = c.Member("KeyRange").Uint()
	w.UpdatePct = c.Member("UpdatePct").Int()
	w.OpsPerThread = c.Member("OpsPerThread").Int()
	w.Buckets = c.Member("Buckets").Int()
	w.Seed = c.Member("Seed").Uint()
	w.Check = c.Member("Check").Bool()
	readSMROptions(c.Member("SMR"), &w.SMR)
	readCacheParams(c.Member("Cache"), &w.Cache)
	w.Slack = c.Member("Slack").Uint()
	w.FootprintEvery = c.Member("FootprintEvery").Int()
	w.OpWorkCycles = c.Member("OpWorkCycles").Uint()
	w.Dist = c.Member("Dist").Str()
	w.RecordLatency = c.Member("RecordLatency").Bool()
	if c.Has("RecordTail") {
		w.RecordTail = c.Bool()
	}
	if c.Has("RecordTimeline") {
		w.RecordTimeline = c.Bool()
	}
	if c.Has("TimelineWindow") {
		w.TimelineWindow = c.Uint()
	}
	c.End()
}

func (p *PhaseSegment) read(c *jsondec.Cursor) {
	c.Begin()
	p.Name = c.Member("Name").Str()
	p.Ops = c.Member("Ops").Uint()
	p.Cycles = c.Member("Cycles").Uint()
	p.Throughput = c.Member("Throughput").Float()
	p.Retries = c.Member("Retries").Uint()
	readCacheStats(c.Member("Cache"), &p.Cache)
	p.LiveNodes = c.Member("LiveNodes").Uint()
	p.Latency.read(c.Member("Latency"))
	if c.Has("Tail") {
		p.Tail = jsondec.Ptr(c, (*latency.Tail).ReadJSON)
	}
	if c.Has("Timeline") {
		p.Timeline = jsondec.Ptr(c, (*trace.Timeline).ReadJSON)
	}
	c.End()
}

func (s *FootprintSample) read(c *jsondec.Cursor) {
	c.Begin()
	s.AfterOps = c.Member("AfterOps").Int()
	s.Live = c.Member("Live").Uint()
	c.End()
}

func (l *LatencyStats) read(c *jsondec.Cursor) {
	c.Begin()
	l.Samples = c.Member("Samples").Int()
	l.P50 = c.Member("P50").Uint()
	l.P90 = c.Member("P90").Uint()
	l.P99 = c.Member("P99").Uint()
	l.P999 = c.Member("P999").Uint()
	l.Max = c.Member("Max").Uint()
	l.MeanCycles = c.Member("MeanCycles").Float()
	c.End()
}

// The simulator's own types carry no JSON code; their readers live here,
// with the only decoder that needs them.

func readSMROptions(c *jsondec.Cursor, o *smr.Options) {
	c.Begin()
	o.ReclaimEvery = c.Member("ReclaimEvery").Int()
	o.EpochEvery = c.Member("EpochEvery").Int()
	c.End()
}

func readCacheParams(c *jsondec.Cursor, p *cache.Params) {
	c.Begin()
	p.Cores = c.Member("Cores").Int()
	p.ThreadsPerCore = c.Member("ThreadsPerCore").Int()
	p.L1Bytes = c.Member("L1Bytes").Int()
	p.L1Assoc = c.Member("L1Assoc").Int()
	p.L2Bytes = c.Member("L2Bytes").Int()
	p.L2Assoc = c.Member("L2Assoc").Int()
	p.LatL1Hit = c.Member("LatL1Hit").Uint()
	p.LatL2Hit = c.Member("LatL2Hit").Uint()
	p.LatMem = c.Member("LatMem").Uint()
	p.LatRemoteFwd = c.Member("LatRemoteFwd").Uint()
	p.LatInv = c.Member("LatInv").Uint()
	p.LatDir = c.Member("LatDir").Uint()
	p.LatFence = c.Member("LatFence").Uint()
	p.LatFlagCheck = c.Member("LatFlagCheck").Uint()
	p.LatUpgrade = c.Member("LatUpgrade").Uint()
	c.End()
}

func readCacheStats(c *jsondec.Cursor, s *cache.Stats) {
	c.Begin()
	s.L1Hits = c.Member("L1Hits").Uint()
	s.L1Misses = c.Member("L1Misses").Uint()
	s.L2Hits = c.Member("L2Hits").Uint()
	s.L2Misses = c.Member("L2Misses").Uint()
	s.Invalidations = c.Member("Invalidations").Uint()
	s.RemoteFwds = c.Member("RemoteFwds").Uint()
	s.Upgrades = c.Member("Upgrades").Uint()
	s.L1Evictions = c.Member("L1Evictions").Uint()
	s.BackInvals = c.Member("BackInvals").Uint()
	c.End()
}

func readCAStats(c *jsondec.Cursor, s *core.Stats) {
	c.Begin()
	s.CReads = c.Member("CReads").Uint()
	s.CReadFails = c.Member("CReadFails").Uint()
	s.CWrites = c.Member("CWrites").Uint()
	s.CWriteFails = c.Member("CWriteFails").Uint()
	s.Untagged = c.Member("Untagged").Uint()
	s.Revocations = c.Member("Revocations").Uint()
	s.SelfEvicts = c.Member("SelfEvicts").Uint()
	s.MaxTagSet = c.Member("MaxTagSet").Int()
	c.End()
}

func readSMRStats(c *jsondec.Cursor, s *smr.Stats) {
	c.Begin()
	s.Retired = c.Member("Retired").Uint()
	s.Freed = c.Member("Freed").Uint()
	s.Scans = c.Member("Scans").Uint()
	s.MaxBacklog = c.Member("MaxBacklog").Int()
	c.End()
}

func readMemStats(c *jsondec.Cursor, s *mem.Stats) {
	c.Begin()
	s.NodeAllocs = c.Member("NodeAllocs").Uint()
	s.NodeFrees = c.Member("NodeFrees").Uint()
	s.InfraLines = c.Member("InfraLines").Uint()
	s.PeakLive = c.Member("PeakLive").Uint()
	c.End()
}
