// The stored-result codec. A warm store hit reads one Result and a put
// writes one, and encoding/json spends most of that time walking the value
// by reflection, validating the bytes in a prescan before it reads them and
// marshaling each histogram in a nested call whose output it then scans
// again. Each stored type here instead has one walk over a jsonio.Codec,
// which names each member once, in declaration order: run by Append it
// writes the bytes json.Marshal writes in one pass, an omitempty member left
// out when it is empty and a nil slice as null; run by Read it reads them
// back in one pass, straight into the value, with JSON whitespace between
// tokens. The readers accept a subset of what encoding/json accepts and
// decode it to the same value. FuzzResultJSON and FuzzTrialSpecBytes hold
// both directions to encoding/json. A stored payload's fingerprint already
// proves its bytes are what the writer wrote, so anything a reader rejects
// is a defect, and the store turns the error into a miss.
//
// A field added to Result, to Workload or to a type they carry must be
// walked here; TestStoreSchemaTracksResultShape and the fuzz targets fail
// until it is. No type here has a MarshalJSON method, for three reasons:
// json.Marshal stays the reference the tests hold these walks to;
// resultShape stops at any json.Marshaler, so it would stop seeing the
// type's fields; and a method on Result would be promoted to ScenarioResult
// and drop its own members.

package bench

import (
	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/jsonio"
	"condaccess/internal/latency"
	"condaccess/internal/mem"
	"condaccess/internal/smr"
	"condaccess/internal/trace"
)

// AppendJSON appends the JSON json.Marshal writes for r to dst. Like
// json.Marshal, it fails on a NaN or infinite float.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) { return jsonio.Append(dst, r.walk) }

// UnmarshalJSON reads the JSON json.Marshal writes for a Result in one
// pass, with no reflection. On error r is left unchanged.
func (r *Result) UnmarshalJSON(data []byte) error {
	var out Result
	if err := jsonio.Read(data, "bench: result", out.walk); err != nil {
		return err
	}
	*r = out
	return nil
}

// AppendJSON appends a ScenarioResult as Result.AppendJSON appends a
// Result. It has to be its own method: the one promoted from the embedded
// Result knows nothing of ScenarioName, Prefill and Phases.
func (sr *ScenarioResult) AppendJSON(dst []byte) ([]byte, error) { return jsonio.Append(dst, sr.walk) }

// UnmarshalJSON reads a ScenarioResult as Result.UnmarshalJSON reads a
// Result, and is its own method for the same reason.
func (sr *ScenarioResult) UnmarshalJSON(data []byte) error {
	var out ScenarioResult
	if err := jsonio.Read(data, "bench: scenario result", out.walk); err != nil {
		return err
	}
	*sr = out
	return nil
}

func (r *Result) walk(c *jsonio.Codec) {
	c.Begin()
	r.members(c)
	c.End()
}

// walk walks the embedded Result's members inline, where encoding/json
// writes them, then the scenario's own.
func (sr *ScenarioResult) walk(c *jsonio.Codec) {
	c.Begin()
	sr.Result.members(c)
	c.Key("ScenarioName").Str(&sr.ScenarioName)
	sr.Prefill.walk(c.Key("Prefill"))
	jsonio.Slice(c.Key("Phases"), &sr.Phases, (*PhaseSegment).walk)
	c.End()
}

func (r *Result) members(c *jsonio.Codec) {
	r.W.walk(c.Key("W"))
	c.Key("PrefillSize").Int(&r.PrefillSize)
	c.Key("Ops").Uint(&r.Ops)
	c.Key("Cycles").Uint(&r.Cycles)
	c.Key("Throughput").Float(&r.Throughput)
	c.Key("Retries").Uint(&r.Retries)
	walkCacheStats(c.Key("Cache"), &r.Cache)
	walkCAStats(c.Key("CA"), &r.CA)
	walkSMRStats(c.Key("SMR"), &r.SMR)
	walkMemStats(c.Key("Mem"), &r.Mem)
	jsonio.Slice(c.Key("Footprint"), &r.Footprint, (*FootprintSample).walk)
	r.Latency.walk(c.Key("Latency"))
	if c.Opt("Tail", r.Tail != nil) {
		jsonio.Ptr(c, &r.Tail, (*latency.Tail).Walk)
	}
	if c.Opt("Timeline", r.Timeline != nil) {
		jsonio.Ptr(c, &r.Timeline, (*trace.Timeline).Walk)
	}
}

// walk walks a Workload: the canonical trial spec (TrialSpecBytes) and a
// Result's W.
func (w *Workload) walk(c *jsonio.Codec) {
	c.Begin()
	c.Key("DS").Str(&w.DS)
	c.Key("Scheme").Str(&w.Scheme)
	c.Key("Threads").Int(&w.Threads)
	c.Key("KeyRange").Uint(&w.KeyRange)
	c.Key("UpdatePct").Int(&w.UpdatePct)
	c.Key("OpsPerThread").Int(&w.OpsPerThread)
	c.Key("Buckets").Int(&w.Buckets)
	c.Key("Seed").Uint(&w.Seed)
	c.Key("Check").Bool(&w.Check)
	walkSMROptions(c.Key("SMR"), &w.SMR)
	walkCacheParams(c.Key("Cache"), &w.Cache)
	c.Key("Slack").Uint(&w.Slack)
	c.Key("FootprintEvery").Int(&w.FootprintEvery)
	c.Key("OpWorkCycles").Uint(&w.OpWorkCycles)
	c.Key("Dist").Str(&w.Dist)
	c.Key("RecordLatency").Bool(&w.RecordLatency)
	if c.Opt("RecordTail", w.RecordTail) {
		c.Bool(&w.RecordTail)
	}
	if c.Opt("RecordTimeline", w.RecordTimeline) {
		c.Bool(&w.RecordTimeline)
	}
	if c.Opt("TimelineWindow", w.TimelineWindow != 0) {
		c.Uint(&w.TimelineWindow)
	}
	c.End()
}

func (p *PhaseSegment) walk(c *jsonio.Codec) {
	c.Begin()
	c.Key("Name").Str(&p.Name)
	c.Key("Ops").Uint(&p.Ops)
	c.Key("Cycles").Uint(&p.Cycles)
	c.Key("Throughput").Float(&p.Throughput)
	c.Key("Retries").Uint(&p.Retries)
	walkCacheStats(c.Key("Cache"), &p.Cache)
	c.Key("LiveNodes").Uint(&p.LiveNodes)
	p.Latency.walk(c.Key("Latency"))
	if c.Opt("Tail", p.Tail != nil) {
		jsonio.Ptr(c, &p.Tail, (*latency.Tail).Walk)
	}
	if c.Opt("Timeline", p.Timeline != nil) {
		jsonio.Ptr(c, &p.Timeline, (*trace.Timeline).Walk)
	}
	c.End()
}

func (s *FootprintSample) walk(c *jsonio.Codec) {
	c.Begin()
	c.Key("AfterOps").Int(&s.AfterOps)
	c.Key("Live").Uint(&s.Live)
	c.End()
}

func (l *LatencyStats) walk(c *jsonio.Codec) {
	c.Begin()
	c.Key("Samples").Int(&l.Samples)
	c.Key("P50").Uint(&l.P50)
	c.Key("P90").Uint(&l.P90)
	c.Key("P99").Uint(&l.P99)
	c.Key("P999").Uint(&l.P999)
	c.Key("Max").Uint(&l.Max)
	c.Key("MeanCycles").Float(&l.MeanCycles)
	c.End()
}

// The simulator's own types carry no JSON code; their walks live here, with
// the only codec that needs them.

func walkSMROptions(c *jsonio.Codec, o *smr.Options) {
	c.Begin()
	c.Key("ReclaimEvery").Int(&o.ReclaimEvery)
	c.Key("EpochEvery").Int(&o.EpochEvery)
	c.End()
}

func walkCacheParams(c *jsonio.Codec, p *cache.Params) {
	c.Begin()
	c.Key("Cores").Int(&p.Cores)
	c.Key("ThreadsPerCore").Int(&p.ThreadsPerCore)
	c.Key("L1Bytes").Int(&p.L1Bytes)
	c.Key("L1Assoc").Int(&p.L1Assoc)
	c.Key("L2Bytes").Int(&p.L2Bytes)
	c.Key("L2Assoc").Int(&p.L2Assoc)
	c.Key("LatL1Hit").Uint(&p.LatL1Hit)
	c.Key("LatL2Hit").Uint(&p.LatL2Hit)
	c.Key("LatMem").Uint(&p.LatMem)
	c.Key("LatRemoteFwd").Uint(&p.LatRemoteFwd)
	c.Key("LatInv").Uint(&p.LatInv)
	c.Key("LatDir").Uint(&p.LatDir)
	c.Key("LatFence").Uint(&p.LatFence)
	c.Key("LatFlagCheck").Uint(&p.LatFlagCheck)
	c.Key("LatUpgrade").Uint(&p.LatUpgrade)
	c.End()
}

func walkCacheStats(c *jsonio.Codec, s *cache.Stats) {
	c.Begin()
	c.Key("L1Hits").Uint(&s.L1Hits)
	c.Key("L1Misses").Uint(&s.L1Misses)
	c.Key("L2Hits").Uint(&s.L2Hits)
	c.Key("L2Misses").Uint(&s.L2Misses)
	c.Key("Invalidations").Uint(&s.Invalidations)
	c.Key("RemoteFwds").Uint(&s.RemoteFwds)
	c.Key("Upgrades").Uint(&s.Upgrades)
	c.Key("L1Evictions").Uint(&s.L1Evictions)
	c.Key("BackInvals").Uint(&s.BackInvals)
	c.End()
}

func walkCAStats(c *jsonio.Codec, s *core.Stats) {
	c.Begin()
	c.Key("CReads").Uint(&s.CReads)
	c.Key("CReadFails").Uint(&s.CReadFails)
	c.Key("CWrites").Uint(&s.CWrites)
	c.Key("CWriteFails").Uint(&s.CWriteFails)
	c.Key("Untagged").Uint(&s.Untagged)
	c.Key("Revocations").Uint(&s.Revocations)
	c.Key("SelfEvicts").Uint(&s.SelfEvicts)
	c.Key("MaxTagSet").Int(&s.MaxTagSet)
	c.End()
}

func walkSMRStats(c *jsonio.Codec, s *smr.Stats) {
	c.Begin()
	c.Key("Retired").Uint(&s.Retired)
	c.Key("Freed").Uint(&s.Freed)
	c.Key("Scans").Uint(&s.Scans)
	c.Key("MaxBacklog").Int(&s.MaxBacklog)
	c.End()
}

func walkMemStats(c *jsonio.Codec, s *mem.Stats) {
	c.Begin()
	c.Key("NodeAllocs").Uint(&s.NodeAllocs)
	c.Key("NodeFrees").Uint(&s.NodeFrees)
	c.Key("InfraLines").Uint(&s.InfraLines)
	c.Key("PeakLive").Uint(&s.PeakLive)
	c.End()
}
