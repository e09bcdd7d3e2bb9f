// The stored-result encoder, the mirror of decode.go. A put writes one
// Result, and encoding/json spends most of that time walking it by
// reflection, marshaling each histogram in a nested call whose output it
// then scans again. The methods here write the bytes json.Marshal writes in
// one pass instead: members in declaration order, an omitempty member left
// out when it is empty, a nil slice as null. FuzzResultJSON and
// FuzzTrialSpecBytes hold them to json.Marshal byte for byte.
//
// A field added to Result, to Workload or to a type they carry must be
// written here and read in decode.go; TestStoreSchemaTracksResultShape and
// the fuzz targets fail until it is. No type here has a MarshalJSON method,
// for three reasons: json.Marshal stays the reference the tests hold these
// encoders to; resultShape stops at any json.Marshaler, so it would stop
// seeing the type's fields; and a method on Result would be promoted to
// ScenarioResult and drop its own members.

package bench

import (
	"condaccess/internal/cache"
	"condaccess/internal/core"
	"condaccess/internal/jsonenc"
	"condaccess/internal/mem"
	"condaccess/internal/smr"
)

// AppendJSON appends the JSON json.Marshal writes for r to dst. Like
// json.Marshal, it fails on a NaN or infinite float.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	e := jsonenc.Encoder{B: dst}
	e.Begin()
	r.writeMembers(&e)
	e.End()
	return e.B, e.Err()
}

// AppendJSON appends a ScenarioResult as Result.AppendJSON appends a
// Result. It has to be its own method: the one promoted from the embedded
// Result knows nothing of ScenarioName, Prefill and Phases.
func (sr *ScenarioResult) AppendJSON(dst []byte) ([]byte, error) {
	e := jsonenc.Encoder{B: dst}
	e.Begin()
	sr.Result.writeMembers(&e)
	e.Member("ScenarioName").Str(sr.ScenarioName)
	sr.Prefill.write(e.Member("Prefill"))
	jsonenc.Slice(e.Member("Phases"), sr.Phases, (*PhaseSegment).write)
	e.End()
	return e.B, e.Err()
}

// writeMembers writes r's members without the braces, so a ScenarioResult
// can write its embedded Result's members inline, where encoding/json
// writes them.
func (r *Result) writeMembers(e *jsonenc.Encoder) {
	r.W.write(e.Member("W"))
	e.Member("PrefillSize").Int(r.PrefillSize)
	e.Member("Ops").Uint(r.Ops)
	e.Member("Cycles").Uint(r.Cycles)
	e.Member("Throughput").Float(r.Throughput)
	e.Member("Retries").Uint(r.Retries)
	writeCacheStats(e.Member("Cache"), &r.Cache)
	writeCAStats(e.Member("CA"), &r.CA)
	writeSMRStats(e.Member("SMR"), &r.SMR)
	writeMemStats(e.Member("Mem"), &r.Mem)
	jsonenc.Slice(e.Member("Footprint"), r.Footprint, (*FootprintSample).write)
	r.Latency.write(e.Member("Latency"))
	if r.Tail != nil {
		e.Member("Tail")
		e.B = r.Tail.AppendJSON(e.B)
	}
	if r.Timeline != nil {
		e.Member("Timeline")
		e.B = r.Timeline.AppendJSON(e.B)
	}
}

// write writes w as json.Marshal does: the canonical trial spec
// (TrialSpecBytes) and a Result's W.
func (w *Workload) write(e *jsonenc.Encoder) {
	e.Begin()
	e.Member("DS").Str(w.DS)
	e.Member("Scheme").Str(w.Scheme)
	e.Member("Threads").Int(w.Threads)
	e.Member("KeyRange").Uint(w.KeyRange)
	e.Member("UpdatePct").Int(w.UpdatePct)
	e.Member("OpsPerThread").Int(w.OpsPerThread)
	e.Member("Buckets").Int(w.Buckets)
	e.Member("Seed").Uint(w.Seed)
	e.Member("Check").Bool(w.Check)
	writeSMROptions(e.Member("SMR"), &w.SMR)
	writeCacheParams(e.Member("Cache"), &w.Cache)
	e.Member("Slack").Uint(w.Slack)
	e.Member("FootprintEvery").Int(w.FootprintEvery)
	e.Member("OpWorkCycles").Uint(w.OpWorkCycles)
	e.Member("Dist").Str(w.Dist)
	e.Member("RecordLatency").Bool(w.RecordLatency)
	if w.RecordTail {
		e.Member("RecordTail").Bool(true)
	}
	if w.RecordTimeline {
		e.Member("RecordTimeline").Bool(true)
	}
	if w.TimelineWindow != 0 {
		e.Member("TimelineWindow").Uint(w.TimelineWindow)
	}
	e.End()
}

func (p *PhaseSegment) write(e *jsonenc.Encoder) {
	e.Begin()
	e.Member("Name").Str(p.Name)
	e.Member("Ops").Uint(p.Ops)
	e.Member("Cycles").Uint(p.Cycles)
	e.Member("Throughput").Float(p.Throughput)
	e.Member("Retries").Uint(p.Retries)
	writeCacheStats(e.Member("Cache"), &p.Cache)
	e.Member("LiveNodes").Uint(p.LiveNodes)
	p.Latency.write(e.Member("Latency"))
	if p.Tail != nil {
		e.Member("Tail")
		e.B = p.Tail.AppendJSON(e.B)
	}
	if p.Timeline != nil {
		e.Member("Timeline")
		e.B = p.Timeline.AppendJSON(e.B)
	}
	e.End()
}

func (s *FootprintSample) write(e *jsonenc.Encoder) {
	e.Begin()
	e.Member("AfterOps").Int(s.AfterOps)
	e.Member("Live").Uint(s.Live)
	e.End()
}

func (l *LatencyStats) write(e *jsonenc.Encoder) {
	e.Begin()
	e.Member("Samples").Int(l.Samples)
	e.Member("P50").Uint(l.P50)
	e.Member("P90").Uint(l.P90)
	e.Member("P99").Uint(l.P99)
	e.Member("P999").Uint(l.P999)
	e.Member("Max").Uint(l.Max)
	e.Member("MeanCycles").Float(l.MeanCycles)
	e.End()
}

// The simulator's own types carry no JSON code; their writers live here,
// beside their readers' mirror in decode.go.

func writeSMROptions(e *jsonenc.Encoder, o *smr.Options) {
	e.Begin()
	e.Member("ReclaimEvery").Int(o.ReclaimEvery)
	e.Member("EpochEvery").Int(o.EpochEvery)
	e.End()
}

func writeCacheParams(e *jsonenc.Encoder, p *cache.Params) {
	e.Begin()
	e.Member("Cores").Int(p.Cores)
	e.Member("ThreadsPerCore").Int(p.ThreadsPerCore)
	e.Member("L1Bytes").Int(p.L1Bytes)
	e.Member("L1Assoc").Int(p.L1Assoc)
	e.Member("L2Bytes").Int(p.L2Bytes)
	e.Member("L2Assoc").Int(p.L2Assoc)
	e.Member("LatL1Hit").Uint(p.LatL1Hit)
	e.Member("LatL2Hit").Uint(p.LatL2Hit)
	e.Member("LatMem").Uint(p.LatMem)
	e.Member("LatRemoteFwd").Uint(p.LatRemoteFwd)
	e.Member("LatInv").Uint(p.LatInv)
	e.Member("LatDir").Uint(p.LatDir)
	e.Member("LatFence").Uint(p.LatFence)
	e.Member("LatFlagCheck").Uint(p.LatFlagCheck)
	e.Member("LatUpgrade").Uint(p.LatUpgrade)
	e.End()
}

func writeCacheStats(e *jsonenc.Encoder, s *cache.Stats) {
	e.Begin()
	e.Member("L1Hits").Uint(s.L1Hits)
	e.Member("L1Misses").Uint(s.L1Misses)
	e.Member("L2Hits").Uint(s.L2Hits)
	e.Member("L2Misses").Uint(s.L2Misses)
	e.Member("Invalidations").Uint(s.Invalidations)
	e.Member("RemoteFwds").Uint(s.RemoteFwds)
	e.Member("Upgrades").Uint(s.Upgrades)
	e.Member("L1Evictions").Uint(s.L1Evictions)
	e.Member("BackInvals").Uint(s.BackInvals)
	e.End()
}

func writeCAStats(e *jsonenc.Encoder, s *core.Stats) {
	e.Begin()
	e.Member("CReads").Uint(s.CReads)
	e.Member("CReadFails").Uint(s.CReadFails)
	e.Member("CWrites").Uint(s.CWrites)
	e.Member("CWriteFails").Uint(s.CWriteFails)
	e.Member("Untagged").Uint(s.Untagged)
	e.Member("Revocations").Uint(s.Revocations)
	e.Member("SelfEvicts").Uint(s.SelfEvicts)
	e.Member("MaxTagSet").Int(s.MaxTagSet)
	e.End()
}

func writeSMRStats(e *jsonenc.Encoder, s *smr.Stats) {
	e.Begin()
	e.Member("Retired").Uint(s.Retired)
	e.Member("Freed").Uint(s.Freed)
	e.Member("Scans").Uint(s.Scans)
	e.Member("MaxBacklog").Int(s.MaxBacklog)
	e.End()
}

func writeMemStats(e *jsonenc.Encoder, s *mem.Stats) {
	e.Begin()
	e.Member("NodeAllocs").Uint(s.NodeAllocs)
	e.Member("NodeFrees").Uint(s.NodeFrees)
	e.Member("InfraLines").Uint(s.InfraLines)
	e.Member("PeakLive").Uint(s.PeakLive)
	e.End()
}
