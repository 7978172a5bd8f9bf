package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzip-compressed
// profile.proto; decoding the handful of fields needed here (samples,
// their leaf location, its innermost function name) takes less code
// than it would to shell out to `go tool pprof` and parse its text.

// protoField is one decoded field of a protobuf message: a varint value
// or a length-delimited payload.
type protoField struct {
	num   int
	value uint64
	bytes []byte
}

// protoFields splits a message into its fields. Fixed-width wire types
// do not occur in profile.proto.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return nil, errors.New("profile: truncated field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return nil, errors.New("profile: truncated varint")
			}
			f.value, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: truncated bytes field")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return nil, fmt.Errorf("profile: unexpected wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field that may be packed.
func repeatedVarints(f protoField, into []uint64) []uint64 {
	if f.bytes == nil {
		return append(into, f.value)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			break
		}
		into, b = append(into, v), b[n:]
	}
	return into
}

// flatSamples decodes a CPU profile into flat (self) sample weight per
// function name: each sample is charged to the innermost function of
// its leaf location.
func flatSamples(gz []byte) (map[string]uint64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	type sample struct{ loc, weight uint64 }
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					locs = repeatedVarints(sf, locs)
				case 2:
					vals = repeatedVarints(sf, vals)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value is cpu nanoseconds; the first is the
				// sample count.
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seen := false
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4:
					if seen {
						continue // line[0] is the innermost inlined frame
					}
					ls, err := protoFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn, seen = l.value, true
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	flat := map[string]uint64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		flat[name] += s.weight
	}
	return flat, nil
}

// layerOf maps repo packages to cpu_share buckets; a package not listed
// is its own bucket name (sim, netem, quic, ...).
var layerOf = map[string]string{
	"campaign": "harness", "measure": "harness", "experiments": "harness",
	"scan": "harness", "stats": "harness", "report": "harness",
	"geo": "harness", "pages": "harness",
}

// memSymbols mark a runtime function as allocator, collector or write
// barrier work (go_mem); every other runtime function is go_sched.
var memSymbols = []string{
	"malloc", "gc", "GC", "scanobject", "scanblock", "scanstack", "greyobject",
	"markroot", "markBits", "sweep", "mspan", "mcache", "mcentral", "mheap",
	"wbBuf", "wbZero", "wbMove", "bulkBarrier", "typedmemmove", "typedmemclr",
	"memclr", "heapBits", "heapSetType", "spanOf", "findObject", "nextFree",
	"newobject", "newarray", "makeslice", "growslice", "makemap", "makechan",
	"rawstring", "rawbyteslice", "slicebytetostring", "concatstring", "stringtoslicebyte",
	"arena", "pageAlloc", "pageCache", "pallocBits", "scavenge", "tracealloc",
	"stackalloc", "stackfree", "stackpool", "newstack", "copystack", "morestack",
	"publicationBarrier", "addspecial", "finalizer", "deductAssistCredit",
}

// bucketOf is the fixed symbol-prefix table of the workload
// attribution.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/") // dox/racing -> dox, netapi/simnet -> netapi
		if b, ok := layerOf[pkg]; ok {
			return b
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.HasPrefix(fn, "math/big."),
		strings.HasPrefix(fn, "vendor/golang.org/x/crypto/"), strings.HasPrefix(fn, "hash/"):
		return "crypto"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/internal/"),
		strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "gcWriteBarrier"),
		strings.HasPrefix(fn, "memeqbody"), strings.HasPrefix(fn, "aeshashbody"):
		for _, m := range memSymbols {
			if strings.Contains(fn, m) {
				return "go_mem"
			}
		}
		return "go_sched"
	}
	return "other"
}

// cpuShares buckets a CPU profile's flat samples into shares that sum
// to one.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatSamples(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for fn, w := range flat {
		shares[bucketOf(fn)] += float64(w)
		total += float64(w)
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}
