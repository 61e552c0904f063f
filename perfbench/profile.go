package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a Go CPU profile to the repository's layers. It
// decodes the pprof protobuf with a minimal reader (the module uses the
// standard library only) and charges every sample to exactly one layer, so
// the shares always sum to 1.

// layers are the modules a sample can be charged to, in report order. The
// Go runtime takes every sample with no krisp frame on its stack.
var layers = []string{
	"bench", "cluster", "gateway", "telemetry", "server", "llm", "sched",
	"profile", "core", "alloc", "hsa", "gpu", "energy", "sim", "runtime",
}

// layerOfPackage maps a krisp/internal package path to its layer. Packages
// absent here (metrics, kernels, models, policies, reconfig, faults,
// parallel, ...) are helpers: their samples go to the caller's layer.
var layerOfPackage = map[string]string{
	"bench":            "bench",
	"cluster":          "cluster",
	"cluster/workload": "cluster",
	"cluster/gateway":  "gateway",
	"telemetry":        "telemetry",
	"server":           "server",
	"llm":              "llm",
	"sched":            "sched",
	"profile":          "profile",
	"core":             "core",
	"alloc":            "alloc",
	"hsa":              "hsa",
	"gpu":              "gpu",
	"energy":           "energy",
	"sim":              "sim",
}

// gcFramePrefixes mark a sample as garbage-collector work: background mark
// workers, mark assists charged to an allocating goroutine, and sweeping
// and scavenging.
var gcFramePrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep",
}

const krispPrefix = "krisp/internal/"

// layerOfFunc returns the layer of a fully qualified Go function name, or
// "" when the function belongs to no layer.
func layerOfFunc(name string) string {
	rest, ok := strings.CutPrefix(name, krispPrefix)
	if !ok {
		return ""
	}
	// Package paths here contain no '.', so the first one ends the path.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return layerOfPackage[rest]
}

// cpuShares is a profile's CPU time split by layer.
type cpuShares struct {
	// ns is the CPU time charged to each layer.
	ns map[string]int64
	// gcNs is the CPU time of samples doing garbage-collector work,
	// whichever layer they were charged to.
	gcNs  int64
	total int64
}

// frac returns layer's share of the profile's CPU time.
func (s *cpuShares) frac(layer string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.ns[layer]) / float64(s.total)
}

// gcFrac returns the share of CPU time spent in the garbage collector.
func (s *cpuShares) gcFrac() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.gcNs) / float64(s.total)
}

// attribute charges each sample of a profile to the innermost frame on its
// stack that belongs to a layer. A runtime or standard-library leaf (a
// copy, a map hash, an allocation) is thereby billed to the layer that
// caused it; only stacks with no layer frame at all go to "runtime".
func attribute(p *cpuProfile, into *cpuShares) {
	if into.ns == nil {
		into.ns = make(map[string]int64)
	}
	for _, s := range p.samples {
		layer, gc := "", false
		for _, fn := range s.stack {
			if layer == "" {
				layer = layerOfFunc(fn)
			}
			for _, pre := range gcFramePrefixes {
				if strings.HasPrefix(fn, pre) {
					gc = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		into.ns[layer] += s.value
		into.total += s.value
		if gc {
			into.gcNs += s.value
		}
	}
}

// cpuProfile is the part of a pprof profile the attribution needs: each
// sample's CPU time and its stack as function names, innermost first.
type cpuProfile struct {
	samples []sample
}

type sample struct {
	value int64
	stack []string
}

// parseProfile decodes a pprof profile, gzipped or not. The value used is
// the sample type measured in nanoseconds (cpu), falling back to the last
// sample type.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // unit string index per sample type
		raws        []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var unit int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, unit)
		case 2: // sample: location_id=1 (packed), value=2 (packed)
			var rs rawSample
			if err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { rs.locs = append(rs.locs, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { rs.values = append(rs.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, rs)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var fn uint64
					if err := walkFields(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					fns = append(fns, fn)
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	vi := len(sampleTypes) - 1
	for i, unit := range sampleTypes {
		if str(unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	p := &cpuProfile{samples: make([]sample, 0, len(raws))}
	for _, rs := range raws {
		if vi >= len(rs.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		s := sample{value: rs.values[vi]}
		for _, loc := range rs.locs {
			// A location's lines run from the innermost inlined call out.
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for each top-level field of a protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds the
// bytes. Fixed-width fields are skipped.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated bytes")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field, packed or not.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
