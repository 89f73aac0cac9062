package program

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
)

// ContentHash returns the sha256 of a canonical encoding of the image: the
// identity under which sampling plans are stored and validated. Two images
// with the same hash produce the same dynamic stream, so a plan
// checkpointed against one is valid for the other. The encoding sorts the
// data maps, so callers that need the hash repeatedly carry it (see
// compiler.Result.ImageHash) instead of recomputing it.
func (img *Image) ContentHash() [sha256.Size]byte {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	writeVarint := func(v int64) {
		h.Write(scratch[:binary.PutVarint(scratch[:], v)])
	}
	writeString := func(s string) {
		writeVarint(int64(len(s)))
		io.WriteString(h, s)
	}
	writeString(img.Name)
	writeVarint(int64(len(img.Insts)))
	for _, in := range img.Insts {
		writeVarint(int64(in.Op))
		writeVarint(int64(in.Rd))
		writeVarint(int64(in.Rs1))
		writeVarint(int64(in.Rs2))
		writeVarint(in.Imm)
		writeVarint(in.Aux)
		writeVarint(int64(in.Target))
	}
	writeVarint(int64(len(img.Data)))
	for _, a := range sortedKeys(img.Data) {
		writeVarint(a)
		writeVarint(img.Data[a])
	}
	writeVarint(int64(len(img.FData)))
	for _, a := range sortedKeys(img.FData) {
		writeVarint(a)
		writeVarint(int64(math.Float64bits(img.FData[a])))
	}
	writeVarint(int64(len(img.ValidRanges)))
	for _, r := range img.ValidRanges {
		writeVarint(r[0])
		writeVarint(r[1])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
