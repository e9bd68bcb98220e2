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

// Self-time buckets of the traced run's CPU profile. Every sample lands in
// exactly one, so the buckets add up to the profile's total.
const (
	bucketSched = "rt.sched"
	bucketGC    = "rt.gc"
	bucketOther = "other"
)

// layerOfPackage maps a dclue/internal package to its bucket.
var layerOfPackage = map[string]string{
	"sim":       "sim",
	"netsim":    "netsim",
	"tcp":       "tcp",
	"trace":     "trace",
	"telemetry": "telemetry",
	"db":        "db",
	"platform":  "platform",
	"disk":      "storage",
	"iscsi":     "storage",
	"tpcc":      "tpcc",
}

// profileBuckets lists every bucket the split reports, in print order.
var profileBuckets = []string{"sim", "netsim", "tcp", "trace", "telemetry", "db", "platform",
	"storage", "tpcc", bucketSched, bucketGC, bucketOther}

// splitProfile decodes a runtime/pprof CPU profile and returns the CPU
// seconds of each bucket and the total. A sample's stack is read leaf
// first:
//   - a runtime frame doing garbage collection or allocation puts it in
//     rt.gc;
//   - otherwise a runtime frame doing scheduling, channel hand-off or futex
//     work puts it in rt.sched;
//   - otherwise the first frame in a dclue/internal package names the
//     bucket, so map, memmove and math helpers count toward the layer that
//     called them;
//   - everything else, the benchmark's own tracer included, is other.
func splitProfile(data []byte) (map[string]float64, float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{}
	for _, b := range profileBuckets {
		out[b] = 0
	}
	total := 0.0
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			return nil, 0, errors.New("profile: sample without a cpu value")
		}
		sec := float64(s.values[p.valueIdx]) / 1e9
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		out[classify(stack)] += sec
		total += sec
	}
	return out, total, nil
}

// classify picks the bucket of one leaf-first stack. Only the runtime
// frames above the first non-runtime frame count as GC or scheduler work,
// so the runtime.goexit at the root of every goroutine does not.
func classify(stack []string) string {
	lead := len(stack)
	for i, fn := range stack {
		if !isRuntime(fn) {
			lead = i
			break
		}
	}
	for _, fn := range stack[:lead] {
		if isGC(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack[:lead] {
		if isSched(fn) {
			return bucketSched
		}
	}
	for _, fn := range stack[lead:] {
		if strings.HasPrefix(fn, "main.") {
			return bucketOther // the benchmark's own tracer
		}
		if rest, ok := strings.CutPrefix(fn, "dclue/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := layerOfPackage[pkg]; ok {
				return l
			}
			return bucketOther
		}
	}
	return bucketOther
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

func isGC(fn string) bool {
	for _, k := range []string{"gc", "malloc", "sweep", "scav", "newobject", "growslice",
		"makeslice", "makemap", "wbBuf", "bulkBarrier", "markroot", "scanobject"} {
		if strings.Contains(fn, k) {
			return true
		}
	}
	return false
}

func isSched(fn string) bool {
	for _, k := range []string{"sched", "chan", "park", "ready", "futex", "note", "lock", "mcall",
		"gogo", "wake", "startm", "stopm", "goexit0", "goexit1", "newproc", "runq", "steal", "sema", "yield",
		"sysmon", "netpoll", "findRunnable", "execute", "select", "casgstatus", "gosched"} {
		if strings.Contains(fn, k) {
			return true
		}
	}
	return false
}

// profile is the part of profile.proto the split needs.
type profile struct {
	valueIdx int // index of the "cpu" sample value
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the gzipped profile.proto that runtime/pprof writes.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		sampleType []int64 // string index of each value's type
		locLines   = map[uint64][]uint64{}
		funcName   = map[uint64]int64{}
		p          = &profile{valueIdx: -1, locFuncs: map[uint64][]string{}}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleType = append(sampleType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, bb)
				case 2:
					for _, x := range appendPacked(nil, v, bb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range sampleType {
		if str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for id, funcs := range locLines {
		names := make([]string, len(funcs))
		for i, f := range funcs {
			names[i] = str(funcName[f])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (v) or
// packed (b non-nil) encoding.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (nil for
// varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
