package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"modchecker/internal/pe"
)

// scratchPool recycles normalization buffers. A 15-VM pool sweep compares
// 105 pairs of ~quarter-megabyte sections; without reuse that is tens of
// megabytes of short-lived allocations per module.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getScratch returns a pooled buffer of length n.
//
//modown:pool scratch get
func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer to the pool.
//
//modown:pool scratch put
func putScratch(p *[]byte) {
	poisonBuf((*p)[:cap(*p)])
	scratchPool.Put(p)
}

// NormalizePair implements the paper's Algorithm 2: given the same section's
// data copied from two VMs and the two modules' load bases, locate embedded
// absolute addresses by byte difference and rewrite them as RVAs in both
// copies, making untampered sections byte-identical (Figure 4 C/D). The
// address width follows the bases' type: 4-byte fields for uint32 bases
// (PE32), 8-byte fields for uint64 bases (PE32+).
//
// The address-location heuristic is the paper's: compare the two base
// addresses byte by byte (in memory order); the index of the first
// differing byte is the "offset". When the section scan hits a differing
// byte at j, the little-endian address field is assumed to start `offset`
// bytes earlier. Because module bases are page aligned (equal low
// bytes) and both loaders add the same RVA, the first differing byte of two
// relocated addresses falls at exactly the same index as the first
// differing byte of the bases, so the heuristic is exact for genuine
// relocation sites. A differing address window whose two values do NOT
// decode to the same RVA is left untouched — that is a real content
// difference and must surface in the hashes. Only the field width depends
// on the architecture; the heuristic is the same at both widths.
//
// Note on fidelity: the paper's pseudocode advances the scan with
// "j <- j - offset + 1 - 4" (line 22), which would move backwards and never
// terminate; the evidently intended advance — past the 4-byte field just
// processed — is what this implementation (and any working one) does. See
// TestAlgorithm2PaperLine22Quirk.
//
// The returned slices are fresh copies; inputs are never mutated. sites
// holds the section-relative offsets of every rewritten address field.
func NormalizePair[A Address](data1, data2 []byte, base1, base2 A) (n1, n2 []byte, sites []uint32) {
	width := 4
	if _, wide := any(base1).(uint64); wide {
		width = 8
	}
	n1 = append([]byte(nil), data1...)
	n2 = append([]byte(nil), data2...)
	sites = normalizePairInPlace(n1, n2, uint64(base1), uint64(base2), width)
	return n1, n2, sites
}

// pairWidth is the address width two parsed copies are normalized at: 8
// only when both are PE32+, so the choice is symmetric in the pair.
func pairWidth(a, b *ParsedModule) int {
	return min(a.AddrWidth, b.AddrWidth)
}

// normalizePairInPlace is Algorithm 2 over width-byte address fields (4 or
// 8), operating directly on the two buffers (which it mutates).
// NormalizePair wraps it with copies; the checker's hot path runs it on
// pooled scratch buffers instead. The width only changes how a differing
// window is decoded: the equal-byte scan is the same at both widths.
func normalizePairInPlace(n1, n2 []byte, base1, base2 uint64, width int) (sites []uint32) {
	// Algorithm 2 lines 1-9: find the first differing byte of the bases
	// (in little-endian memory order, within the address width).
	diff := base1 ^ base2
	if width == 4 {
		diff &= math.MaxUint32
	}
	if diff == 0 {
		// Identical bases: relocated addresses are identical too; any byte
		// difference is a genuine modification. Nothing to rewrite.
		return nil
	}
	offset := bits.TrailingZeros64(diff) / 8

	limit := min(len(n1), len(n2))
	n1, n2 = n1[:limit], n2[:limit]
	for j := 0; j < len(n1); {
		// The equal-byte scan: the hot loop, the same at both widths.
		for j < len(n1) && n1[j] == n2[j] {
			j++
		}
		if j == len(n1) {
			break
		}
		start := j - offset
		if start >= 0 && start+width <= len(n1) && rewriteSite(n1[start:start+width], n2[start:start+width], base1, base2) {
			sites = append(sites, uint32(start))
			j = start + width
			continue
		}
		// Not a consistent relocation: a genuine content difference.
		// Leave the byte and keep scanning.
		j++
	}
	return sites
}

// rewriteSite decodes one differing address window (4 or 8 bytes) in both
// copies and, when the two decode to the same RVA, rewrites both to it. It
// decodes like sameRVA but does not call it (inline cost 70): built on
// sameRVA, or on a shared decode that returns the RVA (cost 97), it exceeds
// the compiler's inline budget of 80 and stops inlining into the scan loop,
// which measured 5-15% slower on BenchmarkNormalizePair (2000 iterations,
// 4-5 alternating pairs, 2-core Xeon).
func rewriteSite(f1, f2 []byte, base1, base2 uint64) bool {
	le := binary.LittleEndian
	if len(f1) == 8 {
		rva := le.Uint64(f1) - base1
		if rva != le.Uint64(f2)-base2 {
			return false
		}
		le.PutUint64(f1, rva)
		le.PutUint64(f2, rva)
		return true
	}
	rva := le.Uint32(f1) - uint32(base1)
	if rva != le.Uint32(f2)-uint32(base2) {
		return false
	}
	le.PutUint32(f1, rva)
	le.PutUint32(f2, rva)
	return true
}

// sameRVA reports whether one address window (4 or 8 bytes) decodes to the
// same RVA in both copies.
func sameRVA(f1, f2 []byte, base1, base2 uint64) bool {
	le := binary.LittleEndian
	if len(f1) == 8 {
		return le.Uint64(f1)-base1 == le.Uint64(f2)-base2
	}
	return le.Uint32(f1)-uint32(base1) == le.Uint32(f2)-uint32(base2)
}

// replaySites reports whether normalizePairInPlace(data, ref, base, refBase,
// width) would rewrite exactly sites — a site list an earlier scan of ref
// returned — without copying or scanning: it checks the conditions under
// which the scan provably takes that path.
//
//   - Equal lengths, so the scan's limit is the one the sites were found
//     under, and every site window lies inside it.
//   - Bases that differ within the width; with equal bases the scan
//     rewrites nothing.
//   - Windows in ascending order that do not overlap; an overlapping
//     window would be decoded after its neighbour's rewrite.
//   - Equal bytes everywhere outside the windows, so the scan reaches each
//     window without stopping.
//   - Windows that decode to the same RVA in both copies, so the scan
//     rewrites each one. Same RVA means data's value minus ref's equals
//     base minus refBase modulo the width, and a difference's lowest set
//     bit is the lowest bit where the two values differ: the window's
//     first differing byte is then exactly the pair's offset, so the scan
//     lands on the window's start and needs no separate check for it.
//
// When it returns true, both sides of that scan equal ref with every site
// rewritten to ref's RVA there — the reference side the earlier scan
// produced — which FuzzDigestReplay checks against the scan itself.
func replaySites(data, ref []byte, sites []uint32, base, refBase uint64, width int) bool {
	if len(data) != len(ref) {
		return false
	}
	diff := base ^ refBase
	if width == 4 {
		diff &= math.MaxUint32
	}
	if diff == 0 {
		return false
	}
	next := 0 // first byte past the previous window
	for _, s := range sites {
		start, end := int(s), int(s)+width
		if start < next || end > len(ref) ||
			!bytes.Equal(data[next:start], ref[next:start]) {
			return false
		}
		if !sameRVA(data[start:end], ref[start:end], base, refBase) {
			return false
		}
		next = end
	}
	return bytes.Equal(data[next:], ref[next:])
}

// NormalizeWithRelocs is the ablation alternative (A2) to the diff scan: it
// recovers relocation sites from the module's own in-memory .reloc table
// (data directory 5) and rewrites each address field (HIGHLOW on PE32,
// DIR64 on PE32+) back to an RVA by subtracting the load base. Unlike
// NormalizePair it needs no second VM and normalizes each copy once, but it
// trusts metadata inside the (possibly hostile) module — the robustness
// trade-off DESIGN.md discusses.
//
// It returns the section-RVA-sorted fixup sites; apply them to a component
// with ApplyRelocNormalization.
func NormalizeWithRelocs(raw []byte) ([]uint32, error) {
	le := binary.LittleEndian
	lfanew := le.Uint32(raw[0x3C:])
	optOff := lfanew + 4 + pe.FileHeaderSize
	// DataDirectory starts 96 bytes into the PE32 optional header and 112
	// into the PE32+ one (ImageBase and the stack/heap sizes widen).
	dirStart := uint32(96)
	if le.Uint16(raw[optOff:]) == pe.OptionalMagic64 {
		dirStart = 112
	}
	dirOff := optOff + dirStart + pe.DirBaseReloc*8
	relocRVA := le.Uint32(raw[dirOff:])
	relocSize := le.Uint32(raw[dirOff+4:])
	if relocRVA == 0 || relocSize == 0 {
		return nil, nil
	}
	if uint64(relocRVA)+uint64(relocSize) > uint64(len(raw)) {
		return nil, pe.ErrFormat
	}
	return pe.ParseRelocTable(raw[relocRVA : relocRVA+relocSize])
}

// ApplyRelocNormalization returns a copy of the component's data with every
// relocation site inside it rewritten from absolute address to RVA. sites
// are image-relative RVAs (as returned by NormalizeWithRelocs); base is the
// module's load base on this VM; width is the image's address width
// (ParsedModule.AddrWidth: 4-byte HIGHLOW or 8-byte DIR64 fields).
func ApplyRelocNormalization(c *Component, sites []uint32, base uint64, width int) []byte {
	out := append([]byte(nil), c.Data...)
	le := binary.LittleEndian
	lo := uint64(c.VirtualAddress)
	hi := lo + uint64(len(out))
	for _, rva := range sites {
		if uint64(rva) < lo || uint64(rva)+uint64(width) > hi {
			continue
		}
		off := uint64(rva) - lo
		if width == 8 {
			le.PutUint64(out[off:], le.Uint64(out[off:])-base)
		} else {
			le.PutUint32(out[off:], le.Uint32(out[off:])-uint32(base))
		}
	}
	return out
}
