package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes: just enough of the wire format to recover, per
// sample, the call stack as function names and the CPU nanoseconds.
// Standard library only, so the benchmark needs no pprof dependency.

// profSample is one CPU-profile sample: the stack, leaf first with
// inlined frames expanded, and the CPU time it stands for.
type profSample struct {
	Stack []string
	Nanos int64
}

type cpuProfile struct {
	Samples []profSample
}

// protoField is one decoded field of a protobuf message: a varint
// value or a length-delimited payload, by wire type.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("profile.proto: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits a message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile.proto: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints appends the values of a repeated integer field, which
// the encoder may have written packed (one payload) or one by one.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseCPUProfile decodes a profile written by pprof.StartCPUProfile.
func parseCPUProfile(raw []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile.proto: %w", err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile.proto: %w", err)
	}
	top, err := readFields(msg)
	if err != nil {
		return nil, err
	}

	var strtab []string
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	var sampleTypes [][2]uint64       // (type, unit) string indices
	locLines := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]uint64{}   // function id → name string index
	prof := &cpuProfile{}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var vt [2]uint64
			for _, g := range fs {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = g.val
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, g); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = repeatedVarints(s.vals, g); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // location
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					ls, err := readFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	// The CPU time is the value whose unit is nanoseconds (the other is
	// the sample count); fall back to the last value.
	valIdx := len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if str(vt[1]) == "nanoseconds" {
			valIdx = i
		}
	}
	for _, s := range samples {
		if valIdx < 0 || valIdx >= len(s.vals) {
			return nil, fmt.Errorf("profile.proto: sample has %d values, want index %d", len(s.vals), valIdx)
		}
		ps := profSample{Nanos: int64(s.vals[valIdx])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.Stack = append(ps.Stack, str(funcName[fn]))
			}
		}
		prof.Samples = append(prof.Samples, ps)
	}
	return prof, nil
}

// cpuLayers are the cpx/internal packages CPU time is attributed to —
// the layers of this system. Frames in other cpx/internal packages
// (cluster, order, fem) are passed over, so their cost lands on the
// layer that called them.
var cpuLayers = []string{"mpi", "coupler", "mgcfd", "simpic", "pressure", "amg", "sparse",
	"spray", "particle", "mesh", "partition", "perfmodel", "harness", "serve", "trace",
	"telemetry", "fault"}

// cpuBuckets are the attribution buckets in report order: the layers,
// then what no layer owns.
var cpuBuckets = append(append([]string(nil), cpuLayers...), "gc", "sched", "other")

// cpuAttribution is CPU seconds per bucket: one per layer plus gc,
// sched and other. The buckets partition the samples, so they sum to
// Total.
type cpuAttribution struct {
	Total       float64
	Bucket      map[string]float64
	MallocShare float64 // share of Total with runtime.mallocgc on the stack
}

// layerOf returns the cpuLayers entry a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "cpx/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return ""
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

func isSchedFrame(fn string) bool {
	switch fn {
	case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
		"runtime.goexit0", "runtime.mstart", "runtime.gosched_m", "runtime.goschedImpl":
		return true
	}
	return false
}

// attribute charges each sample to exactly one bucket: "gc" when a GC
// worker or assist is on the stack (even under a cpx frame — the
// collector's cost is tracked on its own); else the deepest frame in a
// cpuLayers package, so stdlib work is charged to the layer that asked
// for it; else "sched" for scheduler stacks; else "other" (the
// benchmark's own client code, the HTTP server above the handler).
func attribute(p *cpuProfile) cpuAttribution {
	a := cpuAttribution{Bucket: map[string]float64{}}
	var malloc float64
	for _, s := range p.Samples {
		sec := float64(s.Nanos) / 1e9
		a.Total += sec
		bucket, gc, sched, hasMalloc := "", false, false, false
		for _, fn := range s.Stack {
			if bucket == "" {
				bucket = layerOf(fn)
			}
			gc = gc || isGCFrame(fn)
			sched = sched || isSchedFrame(fn)
			hasMalloc = hasMalloc || fn == "runtime.mallocgc"
		}
		switch {
		case gc:
			bucket = "gc"
		case bucket != "":
		case sched:
			bucket = "sched"
		default:
			bucket = "other"
		}
		a.Bucket[bucket] += sec
		if hasMalloc {
			malloc += sec
		}
	}
	if a.Total > 0 {
		a.MallocShare = malloc / a.Total
	}
	return a
}
