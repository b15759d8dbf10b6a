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

// uarchPkg prefixes every simulator function name in a Go CPU profile.
const uarchPkg = "braid/internal/uarch."

// stageMap assigns internal/uarch functions to engine stages. A sample is
// charged to the innermost frame on its stack that maps to a stage; frames
// mapped to "" are helpers charged to whichever stage called them. A sample
// with a uarch frame but no mapped frame is charged to "other", so renaming
// a stage function moves its time to other_share instead of silently
// dropping it. The fold's test requires every uarch function above 1% of a
// profile to appear here.
var stageMap = map[string]string{
	"(*frontend).fetch":          "fetch",
	"(*frontend).buildDyn":       "fetch",
	"(*frontend).buildDyn.func1": "fetch",
	"(*Machine).allocDyn":        "fetch",
	"(*dyn).reset":               "fetch",
	"(*dyn).extSrcCount":         "fetch",

	"(*Machine).dispatch":         "dispatch",
	"(*Machine).allocBound":       "dispatch",
	"(*oooCore).dispatch":         "dispatch",
	"(*oooCore).canAccept":        "dispatch",
	"(*inOrderCore).dispatch":     "dispatch",
	"(*inOrderCore).canAccept":    "dispatch",
	"(*depSteerCore).dispatch":    "dispatch",
	"(*depSteerCore).canAccept":   "dispatch",
	"(*depSteerCore).steerTarget": "dispatch",
	"(*braidCore).dispatch":       "dispatch",
	"(*braidCore).canAccept":      "dispatch",
	"(*braidCore).freeBEU":        "dispatch",
	"(*braidCore).anyFree":        "dispatch",
	"(*braidCore).pickQueuedBEU":  "dispatch",
	"(*braidCore).setSerialized":  "dispatch",
	"(*oooCore).issue":            "issue",
	"(*inOrderCore).issue":        "issue",
	"(*depSteerCore).issue":       "issue",
	"(*braidCore).issue":          "issue",
	"(*Machine).tryIssue":         "issue",
	"(*Machine).srcsReady":        "issue",
	"(*Machine).issueLoad":        "issue",
	"(*Machine).mightIssue":       "issue",
	"(*Machine).crossCluster":     "issue",
	"(*Machine).noteWake":         "issue",
	"(*Machine).tryEarlyRelease":  "issue",
	"(*Machine).dynWake":          "issue",
	"(*Machine).calPush":          "issue",
	"(*Machine).calGrow":          "issue",
	"intReady":                    "issue",
	"mayAlias":                    "issue",
	"latencyClass":                "issue",
	"(*Machine).writeback":        "writeback",
	"(*Machine).writebackOne":     "writeback",
	"(*Machine).retire":           "retire",
	"(*Machine).decRef":           "retire",
	"(*Machine).konataRetire":     "retire",
	"(*Machine).traceRetire":      "retire",
	"(*Machine).fastForward":      "fastforward",
	"(*oooCore).nextWake":         "fastforward",
	"(*inOrderCore).nextWake":     "fastforward",
	"(*depSteerCore).nextWake":    "fastforward",
	"(*braidCore).nextWake":       "fastforward",
	"(*warmer).warm":              "warm",
	"runSampled":                  "warm",
	"programTrace":                "replay",
	"programMeta":                 "replay",
	"(*Machine).step":             "other",
	"(*Machine).resetCycle":       "other",
	"runInterval":                 "other",
	"(*dynRing).push":             "",
	"(*dynRing).popFront":         "",
	"(*dynRing).front":            "",
	"(*dynRing).at":               "",
	"(*dynRing).len":              "",
	"instrAddr":                   "",
}

// stageOf classifies one profile frame: the stage (possibly "" for a
// helper), whether the function is known to the map, and whether it is a
// simulator function at all.
func stageOf(fn string) (stage string, known, inUarch bool) {
	if !strings.HasPrefix(fn, uarchPkg) {
		return "", false, false
	}
	stage, known = stageMap[strings.TrimPrefix(fn, uarchPkg)]
	return stage, known, true
}

// stageShares folds a gzipped pprof CPU profile into the share of
// simulator time each stage took. n is the number of samples that had a
// simulator frame on their stack (the shares' denominator).
func stageShares(data []byte) (map[string]float64, int, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	out, n := foldStacks(samples)
	return out, n, nil
}

// foldStacks charges each sample with a simulator frame to its stage.
func foldStacks(samples []profSample) (map[string]float64, int) {
	counts := map[string]int64{}
	var total int64
	n := 0
	for _, s := range samples {
		stage, seen := "", false
		for _, fn := range s.stack {
			st, known, in := stageOf(fn)
			if !in {
				continue
			}
			seen = true
			if known && st != "" {
				stage = st
				break
			}
		}
		if !seen {
			continue
		}
		if stage == "" {
			stage = "other"
		}
		counts[stage] += s.value
		total += s.value
		n++
	}
	out := make(map[string]float64, len(stages))
	for _, st := range stages {
		if total > 0 {
			out[st] = float64(counts[st]) / float64(total)
		}
	}
	return out, n
}

// profSample is one stack (leaf first, inlined frames expanded) and its
// sample count.
type profSample struct {
	stack []string
	value int64
}

// parseProfile decodes the subset of the pprof protobuf format a Go CPU
// profile needs: samples, locations (with inlined lines), functions and the
// string table.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
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
	var out []profSample
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: s.vals[0]}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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
