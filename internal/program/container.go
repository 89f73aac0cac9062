package program

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/noreba-sim/noreba/internal/isa"
)

// Container format for laid-out images (.nrb files): a compact sectioned
// binary holding the encoded instruction stream, initial data, valid
// address ranges and block labels, so compiled (annotated) programs can be
// written by noreba-compile and executed later by noreba-sim without
// re-running the pass.
//
// Layout (all integers little-endian):
//
//	magic   "NRB1"
//	name    u16 length + bytes
//	code    u32 count + count×8-byte instruction words
//	data    u32 count + count×(i64 addr, i64 value)
//	fdata   u32 count + count×(i64 addr, f64 bits)
//	ranges  u32 count + count×(i64 lo, i64 hi)
//	labels  u32 count + count×(u16 len + bytes, u32 pc)
const containerMagic = "NRB1"

// MarshalBinary serialises the image into the container format.
func (img *Image) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(containerMagic)

	writeStr := func(s string) {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
		buf.Write(l[:])
		buf.WriteString(s)
	}
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	writeI64 := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		buf.Write(b[:])
	}

	if len(img.Name) > 0xffff {
		return nil, fmt.Errorf("program: name too long")
	}
	writeStr(img.Name)

	code, err := isa.EncodeProgram(img.Insts)
	if err != nil {
		return nil, err
	}
	writeU32(uint32(len(img.Insts)))
	buf.Write(code)

	// Deterministic order for maps.
	dataAddrs := sortedKeys(img.Data)
	writeU32(uint32(len(dataAddrs)))
	for _, a := range dataAddrs {
		writeI64(a)
		writeI64(img.Data[a])
	}
	fAddrs := sortedKeys(img.FData)
	writeU32(uint32(len(fAddrs)))
	for _, a := range fAddrs {
		writeI64(a)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(img.FData[a]))
		buf.Write(b[:])
	}

	writeU32(uint32(len(img.ValidRanges)))
	for _, r := range img.ValidRanges {
		writeI64(r[0])
		writeI64(r[1])
	}

	writeU32(uint32(len(img.Labels)))
	for _, l := range img.Labels {
		writeStr(l)
		writeU32(uint32(img.StartOf[l]))
	}
	return buf.Bytes(), nil
}

// UnmarshalImage parses a container produced by MarshalBinary.
func UnmarshalImage(data []byte) (*Image, error) {
	r := &reader{data: data}
	if string(r.bytes(4)) != containerMagic {
		return nil, fmt.Errorf("program: bad container magic")
	}
	img := &Image{
		StartOf: map[string]int{},
		Data:    map[int64]int64{},
		FData:   map[int64]float64{},
	}
	img.Name = r.str()

	nInsts := int(r.u32())
	code := r.bytes(nInsts * 8)
	if r.err != nil {
		return nil, r.err
	}
	insts, err := isa.DecodeProgram(code)
	if err != nil {
		return nil, err
	}
	img.Insts = insts

	for n := int(r.u32()); n > 0 && r.err == nil; n-- {
		a := r.i64()
		img.Data[a] = r.i64()
	}
	for n := int(r.u32()); n > 0 && r.err == nil; n-- {
		a := r.i64()
		img.FData[a] = math.Float64frombits(uint64(r.i64()))
	}
	for n := int(r.u32()); n > 0 && r.err == nil; n-- {
		lo := r.i64()
		hi := r.i64()
		img.ValidRanges = append(img.ValidRanges, [2]int64{lo, hi})
	}
	for n := int(r.u32()); n > 0 && r.err == nil; n-- {
		l := r.str()
		pc := int(r.u32())
		img.Labels = append(img.Labels, l)
		img.StartOf[l] = pc
	}
	if r.err != nil {
		return nil, r.err
	}
	// Rebuild BlockOf from label starts (labels are in layout order).
	img.BlockOf = make([]int, len(img.Insts))
	block := -1
	next := 0
	for pc := range img.Insts {
		for next < len(img.Labels) && img.StartOf[img.Labels[next]] == pc {
			block++
			next++
		}
		if block < 0 {
			return nil, fmt.Errorf("program: instruction %d precedes all labels", pc)
		}
		img.BlockOf[pc] = block
	}
	return img, nil
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || r.pos+n > len(r.data) {
		if r.err == nil {
			r.err = fmt.Errorf("program: truncated container")
		}
		return make([]byte, n)
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) i64() int64  { return int64(binary.LittleEndian.Uint64(r.bytes(8))) }

func (r *reader) str() string {
	l := int(binary.LittleEndian.Uint16(r.bytes(2)))
	return string(r.bytes(l))
}

func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
