package amd64

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// --- PE32+ ---

func TestPE64RoundTrip(t *testing.T) {
	raw, err := BuildImage64(StandardCatalog64()[1]) // hal.dll
	if err != nil {
		t.Fatal(err)
	}
	img, err := Parse64(raw)
	if err != nil {
		t.Fatal(err)
	}
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

func TestPE64RejectsPE32(t *testing.T) {
	// A 32-bit image must be rejected by the 64-bit parser.
	b := pe.NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x200), pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := img.Bytes()
	if _, err := Parse64(raw); err == nil {
		t.Error("PE32 image accepted by Parse64")
	}
}

func TestPE64RelocSitesDir64(t *testing.T) {
	raw, _ := BuildImage64(StandardCatalog64()[1])
	img, _ := Parse64(raw)
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
	raw, _ := BuildImage64(StandardCatalog64()[1])
	img, _ := Parse64(raw)
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
	raw, _ := BuildImage64(StandardCatalog64()[1])
	img, _ := Parse64(raw)
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

// --- codegen64 ---

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

// --- 4-level paging ---

func TestPaging64MapTranslate(t *testing.T) {
	phys := mm.NewPhysMemory(16<<20, 1)
	as, err := NewAddressSpace64(phys)
	if err != nil {
		t.Fatal(err)
	}
	pfn, _ := phys.AllocFrame()
	const va = 0xFFFFF88001234000
	if err := as.Map(va, pfn, true); err != nil {
		t.Fatal(err)
	}
	pa, err := mm.WalkPageTables64(phys, as.CR3(), va+0x123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pfn<<mm.PageShift|0x123 {
		t.Errorf("pa = %#x", pa)
	}
}

func TestPaging64RejectsNonCanonical(t *testing.T) {
	phys := mm.NewPhysMemory(16<<20, 1)
	as, _ := NewAddressSpace64(phys)
	if err := as.Map(0x0000800000000000, 3, true); err == nil {
		t.Error("non-canonical address mapped")
	}
	if _, err := mm.WalkPageTables64(phys, as.CR3(), 0x0000900000000000); err == nil {
		t.Error("non-canonical address translated")
	}
}

func TestPaging64UnmappedLevels(t *testing.T) {
	phys := mm.NewPhysMemory(16<<20, 1)
	as, _ := NewAddressSpace64(phys)
	translate := func(va uint64) error {
		_, err := mm.WalkPageTables64(phys, as.CR3(), va)
		return err
	}
	// Nothing mapped: fails at PML4 level.
	if translate(0xFFFFF88001234000) == nil {
		t.Error("empty space translated")
	}
	pfn, _ := phys.AllocFrame()
	as.Map(0xFFFFF88001234000, pfn, true)
	// Same PT, absent PTE.
	if translate(0xFFFFF88001235000) == nil {
		t.Error("absent PTE translated")
	}
	// Different PML4 entry entirely.
	if translate(0x0000700000000000) == nil {
		t.Error("far VA translated")
	}
}

func TestPaging64ReadWriteCrossPage(t *testing.T) {
	phys := mm.NewPhysMemory(16<<20, 1)
	as, _ := NewAddressSpace64(phys)
	const va = 0xFFFFF88001230000
	if err := as.AllocAndMap(va, 3*mm.PageSize, true); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*mm.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Write(va+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := mm.ReadVirtual64(phys, as.CR3(), va+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page 64-bit IO mismatch")
	}
}

// TestPaging64ExternalWalkMatches: the external walk lands every byte the
// guest wrote through its own mappings.
func TestPaging64ExternalWalkMatches(t *testing.T) {
	phys := mm.NewPhysMemory(16<<20, 3)
	as, _ := NewAddressSpace64(phys)
	const va = 0xFFFFF8A000000000
	as.AllocAndMap(va, 8*mm.PageSize, true)
	for off := uint64(0); off < 8*mm.PageSize; off += 1021 {
		if err := as.Write(va+off, []byte{byte(off), byte(off >> 8)}); err != nil {
			t.Fatal(err)
		}
		pa, err := mm.WalkPageTables64(phys, as.CR3(), va+off)
		if err != nil {
			t.Fatal(err)
		}
		var got [1]byte
		if err := phys.ReadPhys(pa, got[:]); err != nil || got[0] != byte(off) {
			t.Fatalf("external walk of +%#x reads %#x (%v)", off, got[0], err)
		}
	}
}

// --- guest64 ---

// boot64 boots n clones of the standard 64-bit disk.
func boot64(t testing.TB, n int) []*Guest64 {
	t.Helper()
	disk, err := BuildStandardDisk64()
	if err != nil {
		t.Fatal(err)
	}
	guests := make([]*Guest64, n)
	for i := range guests {
		g, err := NewGuest64(Config64{
			Name:     "Win7x64-" + string(rune('1'+i)),
			BootSeed: int64(i+1) * 104729,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
	}
	return guests
}

func TestGuest64Boot(t *testing.T) {
	mods := boot64(t, 1)[0].Modules()
	if len(mods) != 4 {
		t.Fatalf("%d modules", len(mods))
	}
	for _, m := range mods {
		if m.Base < driverArea64VA || m.Base >= driverArea64End {
			t.Errorf("%s at %#x outside driver area", m.Name, m.Base)
		}
	}
}

func TestGuest64BasesDiffer(t *testing.T) {
	guests := boot64(t, 2)
	if guests[0].Module("hal.dll").Base == guests[1].Module("hal.dll").Base {
		t.Error("clones share a base")
	}
}

func TestGuest64LoadedImageMatchesLayout(t *testing.T) {
	g := boot64(t, 1)[0]
	mod := g.Module("hal.dll")
	img, _ := Parse64(g.DiskImage("hal.dll"))
	want, err := img.LayoutAt(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	if err := g.Read(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("in-memory 64-bit module differs from relocated layout")
	}
}

// TestNormalizePair64Ldr64Offsets pins the LDR entries the 64-bit loader
// writes to the x64 layout: 8-byte pointers, DllBase at 0x30 and the
// BaseDllName buffer pointer at 0x60, decoded back by nt.X64.
func TestNormalizePair64Ldr64Offsets(t *testing.T) {
	g := boot64(t, 1)[0]
	mod := g.Module("hal.dll")
	b := make([]byte, nt.X64.LdrEntrySize)
	if err := g.Read(mod.LdrEntryVA, b); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(b[0x30:]); got != mod.Base {
		t.Errorf("DllBase at 0x30 = %#x, want %#x", got, mod.Base)
	}
	e, err := nt.X64.DecodeLdrEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if e.BaseDllName.Buffer != binary.LittleEndian.Uint64(b[0x60:]) || e.SizeOfImage != mod.SizeOfImage {
		t.Errorf("decoded entry %+v", e)
	}
	name := make([]byte, e.BaseDllName.Length)
	if err := g.Read(e.BaseDllName.Buffer, name); err != nil {
		t.Fatal(err)
	}
	if s, _ := nt.DecodeUTF16(name); s != "hal.dll" {
		t.Errorf("BaseDllName = %q", s)
	}
}

func TestGuest64ReplaceDiskCOW(t *testing.T) {
	disk, _ := BuildStandardDisk64()
	g1, err := NewGuest64(Config64{Name: "a", BootSeed: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGuest64(Config64{Name: "b", BootSeed: 2, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	patched := append([]byte(nil), g1.DiskImage("hal.dll")...)
	patched[len(patched)-1] ^= 0xFF
	if err := g1.ReplaceDiskImage("hal.dll", patched); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g2.DiskImage("hal.dll"), patched) {
		t.Error("disk replacement leaked to sibling")
	}
	if err := g1.ReplaceDiskImage("ghost.sys", patched); err == nil {
		t.Error("replacing unknown file succeeded")
	}
}

func TestParse64Malformed(t *testing.T) {
	raw, _ := BuildImage64(StandardCatalog64()[1])
	cases := map[string]func([]byte){
		"bad DOS magic":   func(b []byte) { b[0] = 'X' },
		"bad NT sig":      func(b []byte) { b[binary.LittleEndian.Uint32(b[0x3C:])] = 'X' },
		"huge lfanew":     func(b []byte) { b[0x3C], b[0x3D], b[0x3E], b[0x3F] = 0xFF, 0xFF, 0xFF, 0x7F },
		"wrong opt magic": func(b []byte) { lf := binary.LittleEndian.Uint32(b[0x3C:]); b[lf+4+20] = 0x0B; b[lf+4+21] = 0x01 },
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), raw...)
		corrupt(b)
		if _, err := Parse64(b); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
	if _, err := Parse64(nil); err == nil {
		t.Error("nil parsed")
	}
}
