package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profLayers are the layers a CPU profile's time is split into: the
// repository's packages (ds covers every structure under internal/ds),
// encoding/json, and the garbage collector.
var profLayers = []string{"sim", "cache", "core", "mem", "smr", "ds", "bench", "lab", "json", "latency", "trace", "gc"}

// profile is the part of a runtime/pprof CPU profile (a gzipped
// profile.proto message) that layer attribution needs. It is decoded here
// with a minimal protobuf reader, as the repository has no dependencies.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name (string table index)
	strs    []string
}

type profSample struct {
	locs   []uint64 // leaf first
	value  int64    // CPU nanoseconds
	labels map[string]string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var raws []rawSample
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	for _, r := range raws {
		s := profSample{locs: r.locs}
		if len(r.values) > 0 {
			// CPU profiles carry [samples, cpu nanoseconds]; use the last.
			s.value = r.values[len(r.values)-1]
		}
		for _, kv := range r.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[p.str(kv[0])] = p.str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s profSample) []string {
	var names []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			names = append(names, p.str(p.funcs[f]))
		}
	}
	return names
}

// layerShares splits the profile's CPU time by layer, overall and per
// value of the given sample label. A sample counts as gc when any frame is
// the collector's; otherwise it belongs to the innermost frame whose
// package is one of profLayers, so runtime helpers (map access, allocation,
// reflection) are charged to the layer that called them. Samples with no
// such frame are charged to "other".
func (p *profile) layerShares(label string) (total map[string]float64, byLabel map[string]map[string]float64) {
	sums := map[string]float64{}
	var all float64
	labelSums := map[string]map[string]float64{}
	labelAll := map[string]float64{}
	for _, s := range p.samples {
		layer := sampleLayer(p.stack(s))
		v := float64(s.value)
		all += v
		sums[layer] += v
		if lv, ok := s.labels[label]; ok {
			if labelSums[lv] == nil {
				labelSums[lv] = map[string]float64{}
			}
			labelSums[lv][layer] += v
			labelAll[lv] += v
		}
	}
	total = map[string]float64{"other": ratio(sums["other"], all)}
	for _, l := range profLayers {
		total[l] = ratio(sums[l], all)
	}
	byLabel = map[string]map[string]float64{}
	for lv, m := range labelSums {
		byLabel[lv] = map[string]float64{}
		for _, l := range profLayers {
			byLabel[lv][l] = ratio(m[l], labelAll[lv])
		}
	}
	return total, byLabel
}

// gcFrames prefix the runtime functions that are garbage-collection work.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"}

func sampleLayer(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if l := funcLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// funcLayer maps a qualified function name to its layer, or "".
func funcLayer(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "encoding/json" {
		return "json"
	}
	rest, ok := strings.CutPrefix(pkg, "condaccess/internal/")
	if !ok {
		return ""
	}
	rest, _, _ = strings.Cut(rest, "/")
	for _, l := range profLayers {
		if l == rest {
			return l
		}
	}
	return ""
}

// printCellShares prints the per-cell layer shares of a profiled workload.
func printCellShares(w io.Writer, workload string, byCell map[string]map[string]float64) {
	if len(byCell) == 0 {
		return
	}
	cells := make([]string, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	fmt.Fprintf(w, "%s CPU share by cell:\n%-14s", workload, "cell")
	for _, l := range profLayers {
		fmt.Fprintf(w, " %7s", l)
	}
	fmt.Fprintln(w)
	for _, c := range cells {
		fmt.Fprintf(w, "%-14s", c)
		for _, l := range profLayers {
			fmt.Fprintf(w, " %7.3f", byCell[c][l])
		}
		fmt.Fprintln(w)
	}
}

// protoFields calls fn for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes. Fixed-width
// fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether it was
// encoded as one value (v) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
