package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile.proto the benchmark reads:
// sample values attributed to the leaf function of each sample.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []pSample
	locLeaf     map[uint64]uint64 // location id -> innermost function id
	funcName    map[uint64]int64  // function id -> string-table index
	strs        []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			var typ int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample: location_id=1, value=2
			var s pSample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4{function_id=1}
			var id, fn uint64
			haveLine := false
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // line[0] is the innermost inlined function
					}
					haveLine = true
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLeaf[id] = fn
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks one protobuf message. For varint fields v is the
// value; for length-delimited fields b is the payload.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field, packed or not.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// valueIndex is the position of the named sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if p.str(t) == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples", typ)
}

// total sums one sample type over every sample.
func (p *profile) total(typ string) (int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return 0, err
	}
	var t int64
	for _, s := range p.samples {
		if vi < len(s.values) {
			t += s.values[vi]
		}
	}
	return t, nil
}

// flatByBucket sums one sample type by the cpuBucket of each sample's
// leaf function.
func (p *profile) flatByBucket(typ string, into map[string]int64) error {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		name := p.str(p.funcName[p.locLeaf[s.locs[0]]])
		into[cpuBucket(name)] += s.values[vi]
	}
	return nil
}

// cpuBuckets are the packages CPU is reported for, as cpu.<bucket>.
var cpuBuckets = []string{
	"cpptok", "cppast", "semstats", "cppcheck", "stylometry", "attrib", "ml",
	"featcache", "serve", "fleet", "corpus", "codegen", "transform", "cppinterp",
	"gpt", "net", "encoding_json", "syscall", "runtime", "other",
}

// cpuBucket maps a function name such as
// "gptattr/internal/cpptok.(*scanner).scan" to its reporting bucket.
func cpuBucket(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "gptattr/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, b := range cpuBuckets {
			if b == top {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio":
		return "net"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "os" || strings.HasPrefix(pkg, "golang.org/x/sys"):
		return "syscall"
	}
	return "other"
}
