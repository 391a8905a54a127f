package pe_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
)

// hal64 builds the standard 64-bit hal.dll and parses it back.
func hal64(t *testing.T) ([]byte, *pe.Image) {
	t.Helper()
	raw, err := guest.BuildImage(guest.StandardCatalog64()[1])
	if err != nil {
		t.Fatal(err)
	}
	img, err := pe.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, img
}

func TestPE64RoundTrip(t *testing.T) {
	raw, img := hal64(t)
	raw2, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("PE32+ round trip not byte-identical")
	}
	if img.Optional.Magic != pe.OptionalMagic64 || img.File.Machine != pe.MachineAMD64 {
		t.Error("not a PE32+ AMD64 image")
	}
	if img.Optional.ImageBase != 0x180010000 {
		t.Errorf("image base %#x", img.Optional.ImageBase)
	}
}

func TestPE64RelocSitesDir64(t *testing.T) {
	_, img := hal64(t)
	sites, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Fatal("no DIR64 sites")
	}
	// Every site holds base+RVA pointing into the image.
	mem, err := img.Layout()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for _, s := range sites {
		v := le.Uint64(mem[s:])
		if v < img.Optional.ImageBase || v >= img.Optional.ImageBase+uint64(img.Optional.SizeOfImage) {
			t.Errorf("site %#x holds %#x outside image", s, v)
		}
	}
}

func TestPE64LayoutAtRelocates(t *testing.T) {
	_, img := hal64(t)
	const base = uint64(0xFFFFF88001234000)
	mem, err := img.LayoutAt(base)
	if err != nil {
		t.Fatal(err)
	}
	sites, _ := img.RelocSites()
	le := binary.LittleEndian
	for _, s := range sites {
		v := le.Uint64(mem[s:])
		rva := v - base
		if rva >= uint64(img.Optional.SizeOfImage) {
			t.Fatalf("site %#x: %#x does not decode to an RVA under base %#x", s, v, base)
		}
	}
}

// TestPE64RVAInvariant is the 64-bit core invariant: two loads normalize
// to identical bytes.
func TestPE64RVAInvariant(t *testing.T) {
	_, img := hal64(t)
	sites, _ := img.RelocSites()
	f := func(a, b uint16) bool {
		b1 := uint64(0xFFFFF88001000000) + uint64(a)*0x1000
		b2 := uint64(0xFFFFF88001000000) + uint64(b)*0x1000
		m1, err1 := img.LayoutAt(b1)
		m2, err2 := img.LayoutAt(b2)
		if err1 != nil || err2 != nil {
			return false
		}
		le := binary.LittleEndian
		for _, s := range sites {
			le.PutUint64(m1[s:], le.Uint64(m1[s:])-b1)
			le.PutUint64(m2[s:], le.Uint64(m2[s:])-b2)
		}
		return bytes.Equal(m1, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParse64Malformed(t *testing.T) {
	raw, _ := hal64(t)
	cases := map[string]func([]byte){
		"bad DOS magic":   func(b []byte) { b[0] = 'X' },
		"bad NT sig":      func(b []byte) { b[binary.LittleEndian.Uint32(b[0x3C:])] = 'X' },
		"huge lfanew":     func(b []byte) { b[0x3C], b[0x3D], b[0x3E], b[0x3F] = 0xFF, 0xFF, 0xFF, 0x7F },
		"wrong opt magic": func(b []byte) { lf := binary.LittleEndian.Uint32(b[0x3C:]); b[lf+4+20] = 0x0B; b[lf+4+21] = 0x01 },
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), raw...)
		corrupt(b)
		if _, err := pe.Parse(b); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
	if _, err := pe.Parse(nil); err == nil {
		t.Error("nil parsed")
	}
}
