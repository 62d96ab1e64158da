// Package mem provides the flat simulated physical memory image, a simple
// bump allocator for laying out workload data, and the cache-block geometry
// constants shared by the memory system.
//
// The image holds the *architectural* value of every byte at all times;
// caches in this simulator are timing-only. Transactional isolation is
// enforced by the conflict-detection layer (no other core is permitted to
// read a speculatively written block), and rollback restores bytes from the
// transaction's undo log.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Cache-block geometry (Table 1: 64-byte blocks).
const (
	BlockShift    = 6
	BlockSize     = 1 << BlockShift
	WordSize      = 8
	WordsPerBlock = BlockSize / WordSize
)

// BlockOf returns the block number containing the byte address.
func BlockOf(addr int64) int64 { return addr >> BlockShift }

// BlockBase returns the first byte address of the block containing addr.
func BlockBase(addr int64) int64 { return addr &^ (BlockSize - 1) }

// WordAddr returns the 8-byte-aligned word address containing addr.
func WordAddr(addr int64) int64 { return addr &^ (WordSize - 1) }

// Image is a flat byte-addressable memory with a bump allocator.
type Image struct {
	data []byte
	brk  int64
}

// NewImage creates an empty memory image holding only the reserved first
// block, so that address 0 is never a valid allocation (workloads use 0 as
// a null/empty sentinel). The image grows with each Alloc and always spans
// exactly the laid-out bytes, rounded up to a whole cache block.
func NewImage() *Image {
	return &Image{data: make([]byte, BlockSize), brk: BlockSize}
}

// Clone returns an independent copy of the image: the same bytes and the
// same allocation break. A harness that runs one compiled layout several
// times simulates each run on its own clone of the initial image.
func (m *Image) Clone() *Image { return &Image{data: slices.Clone(m.data), brk: m.brk} }

// Size returns the total size of the image in bytes.
func (m *Image) Size() int64 { return int64(len(m.data)) }

// Blocks returns the number of cache blocks the image spans: the reserved
// block plus the block-rounded layout. Block numbers 0..Blocks()-1 are
// exactly the valid blocks; any access outside them is out of the image and
// fails loudly. The coherence directory is a dense per-block array sized by
// Blocks, so a machine must be built after the layout is complete.
func (m *Image) Blocks() int64 { return int64(len(m.data)) >> BlockShift }

// Alloc reserves n bytes aligned to align (a power of two, at least 1) and
// returns the base address. The image grows, zero-filled, to the new break
// rounded up to a whole cache block.
func (m *Image) Alloc(n, align int64) int64 {
	if n < 0 {
		panic("mem: negative allocation")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	m.brk = base + n
	if end := (m.brk + BlockSize - 1) &^ (BlockSize - 1); end > int64(len(m.data)) {
		// Grow the capacity at least twofold, so a layout of many large
		// allocations copies each byte O(1) times; bytes past the length
		// are never written, so the extension reads as zero.
		if end > int64(cap(m.data)) {
			m.data = slices.Grow(m.data, int(max(end, 2*int64(cap(m.data))))-len(m.data))
		}
		m.data = m.data[:end]
	}
	return base
}

// AllocBlocks reserves n bytes aligned to a cache block. Workloads use this
// for shared structures so that distinct structures never share a block
// unless the workload wants false sharing.
func (m *Image) AllocBlocks(n int64) int64 { return m.Alloc(n, BlockSize) }

func (m *Image) check(addr int64, size uint8) {
	if addr < 0 || addr+int64(size) > int64(len(m.data)) {
		panic(fmt.Sprintf("mem: access [%d,+%d) out of range (size %d)", addr, size, len(m.data)))
	}
}

// ReadInt reads size bytes (1, 2, 4 or 8) at addr, little-endian. Sub-word
// reads zero-extend.
func (m *Image) ReadInt(addr int64, size uint8) int64 {
	m.check(addr, size)
	switch size {
	case 1:
		return int64(m.data[addr])
	case 2:
		return int64(binary.LittleEndian.Uint16(m.data[addr:]))
	case 4:
		return int64(binary.LittleEndian.Uint32(m.data[addr:]))
	case 8:
		return int64(binary.LittleEndian.Uint64(m.data[addr:]))
	}
	panic(fmt.Sprintf("mem: bad read size %d", size))
}

// WriteInt writes the low size bytes of v at addr, little-endian.
func (m *Image) WriteInt(addr int64, size uint8, v int64) {
	m.check(addr, size)
	switch size {
	case 1:
		m.data[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], uint64(v))
	default:
		panic(fmt.Sprintf("mem: bad write size %d", size))
	}
}

// Read64 reads the 8-byte word at addr.
func (m *Image) Read64(addr int64) int64 { return m.ReadInt(addr, 8) }

// Write64 writes the 8-byte word at addr.
func (m *Image) Write64(addr int64, v int64) { m.WriteInt(addr, 8, v) }

// Equal reports whether two images hold identical bytes. Differential
// harnesses use it to compare final architectural state across runs.
func (m *Image) Equal(o *Image) bool {
	if len(m.data) != len(o.data) {
		return false
	}
	return string(m.data) == string(o.data)
}

// DiffWord returns the word address of the first 8-byte word at which the
// images differ, or -1 when they are equal (or differ only in length).
func (m *Image) DiffWord(o *Image) int64 {
	n := min(len(m.data), len(o.data))
	for a := 0; a+WordSize <= n; a += WordSize {
		if string(m.data[a:a+WordSize]) != string(o.data[a:a+WordSize]) {
			return int64(a)
		}
	}
	return -1
}

// ReadBlockWords copies the 8 words of the block containing addr into dst.
func (m *Image) ReadBlockWords(addr int64, dst *[WordsPerBlock]int64) {
	base := BlockBase(addr)
	m.check(base, BlockSize)
	for i := 0; i < WordsPerBlock; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(m.data[base+int64(i*WordSize):]))
	}
}
