package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes
// and charges every CPU sample to one layer of the simulator. It needs
// only the standard library: the fields read are a handful of varints
// and strings, so a full protobuf package would be a dependency for
// nothing.

// layers lists the layer names the ledger charges samples to, in report
// order. Samples with no layer frame at all go to runtimeLayer.
var layers = []string{"sim", "sim.pdes", "ht", "nb", "nb.mc", "cpu", "msg", "mpi", "serve", "core", "bench", "prof"}

const runtimeLayer = "runtime"

// layerOf maps one stack frame to its layer, or "" when the frame
// belongs to no layer (the Go runtime and the standard library).
func layerOf(fn, file string) string {
	pkg := funcPackage(fn)
	switch pkg {
	case "main", "repro/bench":
		return "bench"
	case "repro/internal/sim", "repro/internal/core":
		if isPDESFile(file) {
			return "sim.pdes"
		}
		if pkg == "repro/internal/sim" {
			return "sim"
		}
		return "core"
	case "repro/internal/ht":
		return "ht"
	case "repro/internal/nb":
		if strings.HasPrefix(fn, "repro/internal/nb.(*MemoryController)") ||
			strings.HasPrefix(fn, "repro/internal/nb.(*Memory)") {
			return "nb.mc"
		}
		return "nb"
	case "repro/internal/coherency":
		return "nb"
	case "repro/internal/cpu":
		return "cpu"
	case "repro/internal/msg":
		return "msg"
	case "repro/internal/mpi":
		return "mpi"
	case "repro/internal/serve":
		return "serve"
	case "repro/internal/prof", "repro/internal/trace", "repro/internal/monitor", "runtime/pprof":
		return "prof"
	}
	if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
		// Boot, routing, kernels and the root API.
		return "core"
	}
	return ""
}

// isPDESFile reports whether a source file belongs to the parallel
// executor.
func isPDESFile(file string) bool {
	for _, f := range []string{"/sim/parallel.go", "/sim/pstats.go", "/core/parallel.go", "/core/partition.go"} {
		if strings.HasSuffix(file, f) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/nb.(*Northbridge).forward.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frame is one function of a sampled stack.
type frame struct{ fn, file string }

// sample is one CPU profile sample: its stack, leaf first, and its CPU
// time.
type sample struct {
	stack []frame
	count int64
	cpuNS int64
}

// ledger is CPU time per layer.
type ledger struct {
	samples map[string]int64
	cpuNS   map[string]int64
	total   int64 // samples
}

func newLedger() *ledger {
	return &ledger{samples: map[string]int64{}, cpuNS: map[string]int64{}}
}

// charge adds a sample to the innermost frame that belongs to a layer.
func (l *ledger) charge(s sample) {
	layer := runtimeLayer
	for _, f := range s.stack {
		if ly := layerOf(f.fn, f.file); ly != "" {
			layer = ly
			break
		}
	}
	l.samples[layer] += s.count
	l.cpuNS[layer] += s.cpuNS
	l.total += s.count
}

// pct is a layer's share of all samples, in percent.
func (l *ledger) pct(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return 100 * float64(l.samples[layer]) / float64(l.total)
}

// parseProfile decodes a gzipped profile.proto into its samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs      []string
		funcs     = map[uint64][2]uint64{} // id -> name, filename string index
		locs      = map[uint64][]uint64{}  // id -> function ids, innermost first
		rawSmp    []rawSample
		valueType [][2]uint64 // type, unit string index
	)
	p := pbuf{b: raw}
	for p.more() {
		field, wt := p.key()
		switch {
		case field == 1 && wt == 2: // sample_type
			m := p.sub()
			var vt [2]uint64
			for m.more() {
				f, w := m.key()
				if (f == 1 || f == 2) && w == 0 {
					vt[f-1] = m.varint()
				} else {
					m.skip(w)
				}
			}
			valueType = append(valueType, vt)
			p.err = errors.Join(p.err, m.err)
		case field == 2 && wt == 2: // sample
			m := p.sub()
			var s rawSample
			for m.more() {
				f, w := m.key()
				switch f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					s.values = m.uints(w, s.values)
				default:
					m.skip(w)
				}
			}
			rawSmp = append(rawSmp, s)
			p.err = errors.Join(p.err, m.err)
		case field == 4 && wt == 2: // location
			m := p.sub()
			var id uint64
			var fns []uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2: // line
					ln := m.sub()
					for ln.more() {
						lf, lw := ln.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, ln.varint())
						} else {
							ln.skip(lw)
						}
					}
					m.err = errors.Join(m.err, ln.err)
				default:
					m.skip(w)
				}
			}
			locs[id] = fns
			p.err = errors.Join(p.err, m.err)
		case field == 5 && wt == 2: // function
			m := p.sub()
			var id uint64
			var nf [2]uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					nf[0] = m.varint()
				case f == 4 && w == 0:
					nf[1] = m.varint()
				default:
					m.skip(w)
				}
			}
			funcs[id] = nf
			p.err = errors.Join(p.err, m.err)
		case field == 6 && wt == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wt)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("pprof: %w", p.err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, cpuIdx := -1, -1
	for i, vt := range valueType {
		switch str(vt[0]) {
		case "samples":
			countIdx = i
		case "cpu":
			cpuIdx = i
		}
	}
	if countIdx < 0 || cpuIdx < 0 {
		return nil, fmt.Errorf("pprof: not a CPU profile (no samples/cpu value types)")
	}
	out := make([]sample, 0, len(rawSmp))
	for _, rs := range rawSmp {
		if len(rs.values) != len(valueType) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d types", len(rs.values), len(valueType))
		}
		s := sample{count: int64(rs.values[countIdx]), cpuNS: int64(rs.values[cpuIdx])}
		for _, loc := range rs.locs {
			for _, fid := range locs[loc] {
				nf := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbuf reads protobuf wire format. The first malformed field latches
// err and ends the read.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail()
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail()
	return 0
}

func (p *pbuf) fail() {
	if p.err == nil {
		p.err = errTruncated
	}
	p.b = nil
}

func (p *pbuf) key() (field, wireType int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *pbuf) sub() *pbuf { return &pbuf{b: p.bytes()} }

// uints appends one repeated integer field, packed or not.
func (p *pbuf) uints(wireType int, dst []uint64) []uint64 {
	switch wireType {
	case 0:
		return append(dst, p.varint())
	case 2:
		m := p.sub()
		for m.more() {
			dst = append(dst, m.varint())
		}
		if m.err != nil {
			p.err = m.err
		}
		return dst
	}
	p.skip(wireType)
	return dst
}

func (p *pbuf) skip(wireType int) {
	switch wireType {
	case 0:
		p.varint()
	case 1, 5:
		n := 8
		if wireType == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.fail()
			return
		}
		p.b = p.b[n:]
	case 2:
		p.bytes()
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wireType)
		p.b = nil
	}
}
