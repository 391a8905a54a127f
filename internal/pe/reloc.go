package pe

import (
	"encoding/binary"
	"sort"
)

// Base-relocation entry types (IMAGE_REL_BASED_*).
const (
	RelBasedAbsolute = 0  // padding entry, ignored by the loader
	RelBasedHighLow  = 3  // full 32-bit address fixup (PE32)
	RelBasedDir64    = 10 // full 64-bit address fixup (PE32+)
)

// relocPageSize is the span covered by one base-relocation block.
const relocPageSize = 0x1000

// BuildRelocTable serializes a base-relocation table (the contents of the
// .reloc section) for the given fixup sites. Each site is the RVA of a
// 32-bit absolute address embedded in the image that the loader must adjust
// when the module is not loaded at its preferred ImageBase.
//
// The table is a sequence of IMAGE_BASE_RELOCATION blocks: each block has a
// 4-byte page RVA, a 4-byte block size, and a list of 2-byte entries whose
// top 4 bits are the relocation type and bottom 12 bits the offset within
// the page. Blocks are padded with an ABSOLUTE entry to a 4-byte boundary,
// exactly as linkers emit them.
func BuildRelocTable(sites []uint32) []byte {
	return BuildRelocTableTyped(sites, RelBasedHighLow)
}

// BuildRelocTableTyped is BuildRelocTable with an explicit entry type;
// PE32+ images use RelBasedDir64 for their 8-byte fixups.
func BuildRelocTableTyped(sites []uint32, typ uint16) []byte {
	if len(sites) == 0 {
		return nil
	}
	sorted := append([]uint32(nil), sites...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var out []byte
	le := binary.LittleEndian
	i := 0
	for i < len(sorted) {
		page := sorted[i] &^ (relocPageSize - 1)
		j := i
		for j < len(sorted) && sorted[j]&^(relocPageSize-1) == page {
			j++
		}
		n := j - i
		entries := n
		if entries%2 == 1 {
			entries++ // pad to 4-byte boundary with an ABSOLUTE entry
		}
		blockSize := 8 + 2*entries
		block := make([]byte, blockSize)
		le.PutUint32(block[0:], page)
		le.PutUint32(block[4:], uint32(blockSize))
		for k := 0; k < n; k++ {
			entry := typ<<12 | uint16(sorted[i+k]-page)
			le.PutUint16(block[8+2*k:], entry)
		}
		// The padding entry, if present, is already zero (ABSOLUTE, offset 0).
		out = append(out, block...)
		i = j
	}
	return out
}

// ParseRelocTable decodes a base-relocation table and returns the RVAs of
// all HIGHLOW and DIR64 fixup sites, in ascending order.
func ParseRelocTable(table []byte) ([]uint32, error) {
	le := binary.LittleEndian
	var sites []uint32
	off := 0
	for off+8 <= len(table) {
		page := le.Uint32(table[off:])
		size := le.Uint32(table[off+4:])
		if size == 0 && page == 0 {
			break // zero terminator emitted by some linkers
		}
		if size < 8 || off+int(size) > len(table) {
			return nil, formatErr("reloc block at %#x has bad size %d", off, size)
		}
		for p := off + 8; p+2 <= off+int(size); p += 2 {
			entry := le.Uint16(table[p:])
			typ := entry >> 12
			switch typ {
			case RelBasedAbsolute:
				// padding
			case RelBasedHighLow, RelBasedDir64:
				sites = append(sites, page+uint32(entry&0x0FFF))
			default:
				return nil, formatErr("unsupported relocation type %d", typ)
			}
		}
		off += int(size)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites, nil
}

// RelocSites parses the image's .reloc data directory and returns the RVAs
// of all fixup sites. Images with no relocation directory return an empty
// slice.
func (img *Image) RelocSites() ([]uint32, error) {
	dir := img.Optional.DataDirectory[DirBaseReloc]
	if dir.VirtualAddress == 0 || dir.Size == 0 {
		return nil, nil
	}
	sec := img.SectionAt(dir.VirtualAddress)
	if sec == nil {
		return nil, formatErr("reloc directory RVA %#x not inside any section", dir.VirtualAddress)
	}
	start := dir.VirtualAddress - sec.Header.VirtualAddress
	end := start + dir.Size
	if uint64(end) > uint64(len(sec.Data)) {
		return nil, formatErr("reloc directory [%#x,%#x) exceeds section %q data",
			start, end, sec.Header.NameString())
	}
	return ParseRelocTable(sec.Data[start:end])
}

// ApplyRelocations rewrites every fixup site in the mapped image (mem is
// the in-memory layout, indexed by RVA) by adding delta, the difference
// between the actual load base and the preferred ImageBase, to the width-
// byte address stored there: 4 for HIGHLOW sites, 8 for DIR64. This is
// precisely what the Windows kernel module loader does at load time, and
// what makes the same module's executable bytes differ between VMs loaded
// at different bases (the effect ModChecker's Integrity-Checker reverses).
func ApplyRelocations(mem []byte, sites []uint32, delta uint64, width int) error {
	le := binary.LittleEndian
	for _, rva := range sites {
		if int(rva)+width > len(mem) {
			return formatErr("relocation site %#x outside image of %#x bytes", rva, len(mem))
		}
		if width == 8 {
			le.PutUint64(mem[rva:], le.Uint64(mem[rva:])+delta)
		} else {
			le.PutUint32(mem[rva:], le.Uint32(mem[rva:])+uint32(delta))
		}
	}
	return nil
}
