// Package digest provides the fast 64-bit content hash EvoStore uses for
// in-memory change detection: XXH64 (Yann Collet's xxHash, 64-bit
// variant), implemented in pure Go with no allocations.
//
// XXH64 reads its input 32 bytes per step across four independent
// accumulator lanes, so it runs at several GB/s where byte-at-a-time
// FNV-1a manages well under one. Its output is fixed by the published
// specification: the same bytes and seed hash to the same value in every
// process and on every platform (unlike hash/maphash, which is seeded per
// process).
//
// The digest is for in-memory comparison only (tensor fingerprints during
// derived-model diffing). Digests that are sent over the wire or written
// to disk — CAS chunk keys, repair digests, graph fingerprints — stay on
// FNV-1a-64; see docs/adr/0001-xxh64-tensor-fingerprints.md.
package digest

import (
	"encoding/binary"
	"math/bits"
)

const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// Sum64 returns the XXH64 digest of b under seed.
func Sum64(b []byte, seed uint64) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for ; len(b) >= 32; b = b[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)

	for ; len(b) >= 8; b = b[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(b[:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b[:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}

	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime1
}

func mergeRound(acc, v uint64) uint64 {
	acc ^= round(0, v)
	return acc*prime1 + prime4
}
