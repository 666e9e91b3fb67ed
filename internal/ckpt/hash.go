package ckpt

// Identity hashing. Every 64-bit identity the store persists per shard —
// the raw-stream RawSum, the stored-object Checksum, a CDC object's
// DeltaRawSum, and each ChunkRef.Sum — comes from one streaming
// hash.Hash64, named per shard by ShardInfo.HashID so that decode and
// verification always follow the algorithm the entry was written with.
//
// New commits write XXH64: it consumes 32-byte stripes as four independent
// 64-bit lanes, where FNV-1a is a serial multiply per byte, so it runs an
// order of magnitude faster on the commit and restart paths that hash every
// logical byte two or three times. The zero HashID is FNV-1a, so every
// manifest written before the field existed keeps meaning what it meant.
// Blob images (v1/v2) and the manifest-record checksum stay FNV-1a
// (checksumOf): they are outside the store's shard identities and KB-sized.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/bits"
)

// Identity hashes persisted in ShardInfo.HashID.
const (
	// HashFNV1a: hash/fnv's 64-bit FNV-1a, the only identity hash before
	// HashID existed.
	HashFNV1a = 0
	// HashXXH64: XXH64 with seed 0 (xxhash.com spec); what every new
	// commit writes.
	HashXXH64 = 1
)

// writeHashID is the identity hash new shards are written with. It is not
// configurable: commits only ever write this one algorithm.
const writeHashID = HashXXH64

// identityHashes is the one list of valid HashIDs (Manifest.validate
// rejects every other id through hashFactory), indexed by id.
var identityHashes = []struct {
	name string
	new  func() hash.Hash64
}{
	HashFNV1a: {"fnv1a", fnv.New64a},
	HashXXH64: {"xxh64", newXXH64},
}

// newWriteHash constructs writeHashID's digest.
var newWriteHash, _ = hashFactory(writeHashID)

// hashFactory resolves a persisted HashID to its digest constructor.
func hashFactory(id int) (func() hash.Hash64, error) {
	if id < 0 || id >= len(identityHashes) {
		return nil, fmt.Errorf("ckpt: unknown identity hash id %d", id)
	}
	return identityHashes[id].new, nil
}

// HashName spells a persisted HashID for tools ("fnv1a", "xxh64").
func HashName(id int) string {
	if id < 0 || id >= len(identityHashes) {
		return fmt.Sprintf("unknown(%d)", id)
	}
	return identityHashes[id].name
}

// ------------------------------------------------------------------ XXH64

const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

// xxh64 is a streaming XXH64 digest (seed 0). Whole 32-byte stripes go
// straight from the caller's slice into the four lane accumulators; only a
// partial stripe is buffered between writes.
type xxh64 struct {
	v     [4]uint64
	total uint64
	mem   [32]byte
	n     int // buffered bytes in mem
}

func newXXH64() hash.Hash64 {
	d := &xxh64{}
	d.Reset()
	return d
}

func (d *xxh64) Reset() {
	p1 := xxPrime1 // a variable, so the lane seeds wrap instead of overflowing
	d.v = [4]uint64{p1 + xxPrime2, xxPrime2, 0, -p1}
	d.total, d.n = 0, 0
}

func (d *xxh64) Size() int      { return 8 }
func (d *xxh64) BlockSize() int { return 32 }

func xxRound(acc, in uint64) uint64 {
	acc += in * xxPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxPrime1
}

func xxMerge(acc, v uint64) uint64 {
	acc ^= xxRound(0, v)
	return acc*xxPrime1 + xxPrime4
}

// stripes folds every whole 32-byte stripe of b into the lanes and returns
// the unconsumed tail.
func (d *xxh64) stripes(b []byte) []byte {
	v1, v2, v3, v4 := d.v[0], d.v[1], d.v[2], d.v[3]
	for len(b) >= 32 {
		v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
		v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
		v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
		v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		b = b[32:]
	}
	d.v = [4]uint64{v1, v2, v3, v4}
	return b
}

func (d *xxh64) Write(b []byte) (int, error) {
	n := len(b)
	d.total += uint64(n)
	if d.n+len(b) < 32 {
		d.n += copy(d.mem[d.n:], b)
		return n, nil
	}
	if d.n > 0 {
		c := copy(d.mem[d.n:], b)
		d.stripes(d.mem[:])
		b = b[c:]
		d.n = 0
	}
	b = d.stripes(b)
	d.n = copy(d.mem[:], b)
	return n, nil
}

func (d *xxh64) Sum64() uint64 {
	var h uint64
	if d.total >= 32 {
		v1, v2, v3, v4 := d.v[0], d.v[1], d.v[2], d.v[3]
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += d.total
	b := d.mem[:d.n]
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

func (d *xxh64) Sum(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, d.Sum64())
}
