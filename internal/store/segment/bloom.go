// Package segment implements the segmented storage engine: an LSM-style
// stack of sealed, immutable, CRC-framed segment files under one manifest,
// fed by an in-memory memtable and maintained by a background, rate-limited
// compactor. Each segment carries a sparse index summary keyed by image id
// (point lookups touch a handful of frames) and a split-block bloom filter
// (misses cost zero I/O). It stores no bounds: the per-candidate bound
// boxes live in one place, the bounds S-tree (internal/stree), which is the
// whole query-side filter.
//
// The engine is a durability *backend*: it stores opaque per-object
// payloads keyed by id and never interprets them. Write-ahead logging,
// acknowledgement, and replay stay in internal/core; the contract is that
// the WAL checkpoint floor only advances after Seal has made everything the
// log guarded durable in the segment set.
package segment

import "encoding/binary"

// Split-block bloom filter (the cache-local layout used by Parquet and
// Impala): the bit array is divided into 32-byte blocks, a key selects one
// block from the high half of its hash, and eight odd-constant multipliers
// derive one bit per 32-bit word inside that block. Every probe touches a
// single cache line, and the false-positive rate tracks the classical
// bloom curve closely at ≥ 8 bits per key.

// bloomBlockWords is the number of 32-bit words per block (32 bytes).
const bloomBlockWords = 8

// bloomSalts are the per-word odd multipliers (from the Impala/Parquet
// split-block design); each picks one of 32 bit positions in its word.
var bloomSalts = [bloomBlockWords]uint32{
	0x47b6137b, 0x44974d91, 0x8824ad5b, 0xa2b7289d,
	0x705495c7, 0x2df1424b, 0x9efc4947, 0x5c6bfb31,
}

// Bloom is a split-block bloom filter over uint64 ids.
type Bloom struct {
	blocks []uint32 // nBlocks × bloomBlockWords words
}

// NewBloom sizes a filter for n keys at bitsPerKey (values < 1 fall back
// to 10, ≈1% false positives). The block count is rounded up so even a
// tiny filter has one full block.
func NewBloom(n, bitsPerKey int) *Bloom {
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	if n < 1 {
		n = 1
	}
	bits := n * bitsPerKey
	nBlocks := (bits + 255) / 256
	return &Bloom{blocks: make([]uint32, nBlocks*bloomBlockWords)}
}

// mix64 is the splitmix64 finalizer — a fast, well-distributed 64→64 hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// block returns the word offset of the key's block and the 32-bit value
// the salts expand into bit positions.
func (b *Bloom) block(id uint64) (int, uint32) {
	h := mix64(id)
	nBlocks := len(b.blocks) / bloomBlockWords
	blk := int((h >> 32) % uint64(nBlocks))
	return blk * bloomBlockWords, uint32(h)
}

// Add inserts an id.
func (b *Bloom) Add(id uint64) {
	off, h := b.block(id)
	for w := 0; w < bloomBlockWords; w++ {
		bit := (bloomSalts[w] * h) >> 27 // top 5 bits → 0..31
		b.blocks[off+w] |= 1 << bit
	}
}

// MayContain reports whether the id might be in the set (no false
// negatives; false positives at roughly the configured rate).
func (b *Bloom) MayContain(id uint64) bool {
	if len(b.blocks) == 0 {
		return false
	}
	off, h := b.block(id)
	for w := 0; w < bloomBlockWords; w++ {
		bit := (bloomSalts[w] * h) >> 27
		if b.blocks[off+w]&(1<<bit) == 0 {
			return false
		}
	}
	return true
}

// Bits returns the filter size in bits.
func (b *Bloom) Bits() int { return len(b.blocks) * 32 }

// marshal appends the filter's words little-endian.
func (b *Bloom) marshal(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.blocks)))
	for _, w := range b.blocks {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	return buf
}

// unmarshalBloom reads a filter written by marshal, returning the rest of
// the buffer.
func unmarshalBloom(buf []byte) (*Bloom, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errTruncated("bloom header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 0 || n > len(buf)/4 || n%bloomBlockWords != 0 {
		return nil, nil, errCorrupt("bloom word count %d", n)
	}
	b := &Bloom{blocks: make([]uint32, n)}
	for i := range b.blocks {
		b.blocks[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return b, buf[4*n:], nil
}
