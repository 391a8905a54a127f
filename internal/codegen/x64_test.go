package codegen

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestGenerate64Deterministic(t *testing.T) {
	a := Generate64(1, 8192, 0x180000000, 0x3000, 0x1000)
	b := Generate64(1, 8192, 0x180000000, 0x3000, 0x1000)
	if !bytes.Equal(a.Code, b.Code) {
		t.Error("same seed differs")
	}
	if len(a.Functions) == 0 || len(a.RelocOffsets) == 0 {
		t.Error("no functions or reloc sites")
	}
}

func TestGenerate64SparseRelocations(t *testing.T) {
	// x64 relocation density must be much lower than x86's (RIP-relative
	// dominates): expect < 1 site per 64 bytes.
	p := Generate64(2, 65536, 0x180000000, 0x3000, 0x4000)
	if len(p.RelocOffsets) > len(p.Code)/64 {
		t.Errorf("%d sites in %d bytes: too dense for x64", len(p.RelocOffsets), len(p.Code))
	}
	le := binary.LittleEndian
	for _, off := range p.RelocOffsets {
		// Each site is the imm64 of a 48 B8 mov.
		if p.Code[off-2] != 0x48 || p.Code[off-1] != 0xB8 {
			t.Fatalf("site %#x not preceded by MOV RAX, imm64", off)
		}
		v := le.Uint64(p.Code[off:])
		if v < 0x180000000 {
			t.Fatalf("site %#x holds %#x below image base", off, v)
		}
	}
}
