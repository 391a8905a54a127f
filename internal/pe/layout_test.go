package pe

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestLayoutSize(t *testing.T) {
	img := buildTestImage(t)
	mem, err := img.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if uint32(len(mem)) != img.Optional.SizeOfImage {
		t.Errorf("layout is %#x bytes, want SizeOfImage %#x", len(mem), img.Optional.SizeOfImage)
	}
}

func TestLayoutHeadersVerbatim(t *testing.T) {
	img := buildTestImage(t)
	mem, _ := img.Layout()
	raw, _ := img.Bytes()
	if !bytes.Equal(mem[:img.Optional.SizeOfHeaders], raw[:img.Optional.SizeOfHeaders]) {
		t.Error("mapped headers differ from file headers")
	}
}

func TestLayoutSectionsAtRVA(t *testing.T) {
	img := buildTestImage(t)
	mem, _ := img.Layout()
	for i := range img.Sections {
		h := &img.Sections[i].Header
		n := h.SizeOfRawData
		if h.VirtualSize != 0 && h.VirtualSize < n {
			n = h.VirtualSize
		}
		if !bytes.Equal(mem[h.VirtualAddress:h.VirtualAddress+n], img.Sections[i].Data[:n]) {
			t.Errorf("section %q not mapped at its RVA", h.NameString())
		}
	}
}

func TestLayoutGapsZero(t *testing.T) {
	img := buildTestImage(t)
	mem, _ := img.Layout()
	// Bytes between SizeOfHeaders and the first section must be zero.
	for i := img.Optional.SizeOfHeaders; i < img.Sections[0].Header.VirtualAddress; i++ {
		if mem[i] != 0 {
			t.Fatalf("gap byte %#x nonzero", i)
		}
	}
}

func TestLayoutAtPreferredBaseIsUnrelocated(t *testing.T) {
	img := buildTestImage(t)
	plain, _ := img.Layout()
	at, err := img.LayoutAt(img.Optional.ImageBase)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, at) {
		t.Error("LayoutAt(preferred base) differs from Layout")
	}
}

func TestLayoutAtRelocates(t *testing.T) {
	img := buildTestImage(t)
	const newBase = 0xF8CC2000
	mem, err := img.LayoutAt(newBase)
	if err != nil {
		t.Fatal(err)
	}
	// The single reloc site at RVA 0x1004 held preferred+0x2000.
	got := binary.LittleEndian.Uint32(mem[0x1004:])
	want := uint32(newBase + 0x2000)
	if got != want {
		t.Errorf("relocated operand = %#x, want %#x", got, want)
	}
	// Everything except the 4 relocated bytes matches the plain layout.
	plain, _ := img.Layout()
	diff := 0
	for i := range mem {
		if mem[i] != plain[i] {
			diff++
		}
	}
	if diff == 0 || diff > 4 {
		t.Errorf("%d bytes differ after relocation, want 1..4", diff)
	}
}

// TestLayoutAtTwoBasesRVAInvariant property-tests the core ModChecker
// invariant: for any two load bases, subtracting each base at the reloc
// sites yields identical bytes.
func TestLayoutAtTwoBasesRVAInvariant(t *testing.T) {
	img := buildTestImage(t)
	sites, _ := img.RelocSites()
	f := func(a, b uint16) bool {
		base1 := 0xF8000000 + uint32(a)*0x1000
		base2 := 0xF8000000 + uint32(b)*0x1000
		m1, err1 := img.LayoutAt(uint64(base1))
		m2, err2 := img.LayoutAt(uint64(base2))
		if err1 != nil || err2 != nil {
			return false
		}
		if err := ApplyRelocations(m1, sites, uint64(-base1), 4); err != nil {
			return false
		}
		if err := ApplyRelocations(m2, sites, uint64(-base2), 4); err != nil {
			return false
		}
		return bytes.Equal(m1, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
