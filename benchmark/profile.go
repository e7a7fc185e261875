package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShares runs f under a CPU profile and returns each layer's share of
// the samples, a sample belonging to the package of its leaf function
// (the innermost inlined frame). Shares sum to 1; a share times
// ns_per_op bounds what optimising that layer can save.
func cpuShares(f func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	leaves, err := leafSamples(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for fn, n := range leaves {
		shares[layerOf(fn)] += float64(n)
		total += float64(n)
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	for _, l := range cpuShareLayers {
		shares[l] /= total
	}
	return shares, nil
}

// layerOf maps a function's full name to the repo module it belongs to.
func layerOf(fn string) string {
	pkg := fn
	// "aequitas/internal/sim.(*Simulator).Step" -> "aequitas/internal/sim"
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case pkg == "aequitas":
		return "root"
	case pkg == "aequitas/serve":
		return "serve"
	case strings.HasPrefix(pkg, "aequitas/internal/"):
		l := strings.TrimPrefix(pkg, "aequitas/internal/")
		l, _, _ = strings.Cut(l, "/") // obs/flight counts as obs
		for _, known := range cpuShareLayers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// leafSamples decodes a gzipped pprof profile far enough to count CPU
// samples per leaf function. The standard library writes the format but
// has no reader; these are the five message types and eight fields needed
// (profile.proto: Profile.sample=2 .location=4 .function=5 .string_table=6,
// Sample.location_id=1 .value=2, Location.id=1 .line=4, Line.function_id=1,
// Function.id=1 .name=2).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]uint64{} // function id -> string index
		strtab    []string
		walkErr   error
		fieldsErr = func(err error) {
			if walkErr == nil {
				walkErr = err
			}
		}
	)
	fieldsErr(fields(raw, func(num int, varint uint64, body []byte) {
		switch num {
		case 2: // Sample
			var s sample
			var haveLoc bool
			fieldsErr(fields(body, func(num int, v uint64, b []byte) {
				switch num {
				case 1: // location_id, leaf first; packed or repeated
					if !haveLoc {
						haveLoc = true
						s.leaf = v
						if b != nil {
							s.leaf, _ = binary.Uvarint(b)
						}
					}
				case 2: // value: [samples, cpu ns]; keep the count
					if s.value == 0 {
						s.value = int64(v)
						if b != nil {
							u, _ := binary.Uvarint(b)
							s.value = int64(u)
						}
					}
				}
			}))
			if haveLoc {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			fieldsErr(fields(body, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !haveLine {
						haveLine = true
						fieldsErr(fields(b, func(num int, v uint64, _ []byte) {
							if num == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			fieldsErr(fields(body, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcName[id] = name
		case 6:
			strtab = append(strtab, string(body))
		}
	}))
	if walkErr != nil {
		return nil, walkErr
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strtab)) && i > 0 {
			name = strtab[i]
		}
		out[name] += s.value
	}
	return out, nil
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value (body nil) or its length-delimited body.
func fields(msg []byte, f func(num int, varint uint64, body []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
			f(int(key>>3), v, nil)
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			f(int(key>>3), 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}
