package pe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// buildTestImage builds a small but fully featured image: code with reloc
// sites, data, imports and a .reloc section.
func buildTestImage(t testing.TB) *Image {
	t.Helper()
	b := NewBuilder(0x10000)
	code := make([]byte, 0x600)
	code[0] = 0x55                // push ebp
	code[1], code[2] = 0x8B, 0xEC // mov ebp, esp
	code[3] = 0xA1                // mov eax, [moffs32]
	// abs operand at .text+4 pointing at .data
	code[4], code[5], code[6], code[7] = 0x00, 0x20, 0x01, 0x00 // 0x12000
	code[8] = 0xC3
	data := make([]byte, 0x300)
	for i := range data {
		data[i] = byte(i)
	}
	b.AddSection(".text", code, ScnCntCode|ScnMemExecute|ScnMemRead)
	b.AddSection(".data", data, ScnCntInitializedData|ScnMemRead|ScnMemWrite)
	b.SetImports([]Import{{DLL: "ntoskrnl.exe", Functions: []string{"IoCreateDevice", "ZwClose"}}})
	b.SetRelocSites([]uint32{0x1000 + 4})
	img, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return img
}

func TestSectionHeaderName(t *testing.T) {
	var h SectionHeader
	h.SetName(".text")
	if got := h.NameString(); got != ".text" {
		t.Errorf("NameString = %q, want .text", got)
	}
}

func TestSectionHeaderNameTruncation(t *testing.T) {
	var h SectionHeader
	h.SetName(".verylongname")
	if got := h.NameString(); got != ".verylon" {
		t.Errorf("NameString = %q, want 8-byte truncation", got)
	}
}

func TestSectionHeaderNameFull8(t *testing.T) {
	var h SectionHeader
	h.SetName("12345678")
	if got := h.NameString(); got != "12345678" {
		t.Errorf("NameString = %q", got)
	}
}

func TestSectionFlags(t *testing.T) {
	h := SectionHeader{Characteristics: ScnCntCode | ScnMemExecute | ScnMemRead}
	if !h.IsExecutable() {
		t.Error("code section not executable")
	}
	if h.IsWritable() {
		t.Error("code section writable")
	}
	h = SectionHeader{Characteristics: ScnCntInitializedData | ScnMemRead | ScnMemWrite}
	if h.IsExecutable() {
		t.Error("data section executable")
	}
	if !h.IsWritable() {
		t.Error("data section not writable")
	}
}

func TestBuildValidates(t *testing.T) {
	img := buildTestImage(t)
	if err := img.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildSectionLayout(t *testing.T) {
	img := buildTestImage(t)
	// Expect .text at 0x1000, .data at 0x2000, INIT next, .reloc last.
	wantOrder := []string{".text", ".data", "INIT", ".reloc"}
	if len(img.Sections) != len(wantOrder) {
		t.Fatalf("have %d sections, want %d", len(img.Sections), len(wantOrder))
	}
	for i, name := range wantOrder {
		if got := img.Sections[i].Header.NameString(); got != name {
			t.Errorf("section %d = %q, want %q", i, got, name)
		}
	}
	if img.Sections[0].Header.VirtualAddress != 0x1000 {
		t.Errorf(".text VA = %#x, want 0x1000", img.Sections[0].Header.VirtualAddress)
	}
	if img.Sections[1].Header.VirtualAddress != 0x2000 {
		t.Errorf(".data VA = %#x, want 0x2000", img.Sections[1].Header.VirtualAddress)
	}
	for i := 1; i < len(img.Sections); i++ {
		if img.Sections[i].Header.PointerToRawData <= img.Sections[i-1].Header.PointerToRawData {
			t.Errorf("raw pointers not increasing at section %d", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	img := buildTestImage(t)
	raw, err := img.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	raw2, err := back.Bytes()
	if err != nil {
		t.Fatalf("Bytes after Parse: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("serialize -> parse -> serialize not byte-identical")
	}
}

func TestParseFieldFidelity(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	back, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back.DOS.ELfanew != img.DOS.ELfanew {
		t.Errorf("ELfanew %#x != %#x", back.DOS.ELfanew, img.DOS.ELfanew)
	}
	if back.File != img.File {
		t.Errorf("file header differs: %+v vs %+v", back.File, img.File)
	}
	if back.Optional != img.Optional {
		t.Errorf("optional header differs")
	}
	if !bytes.Equal(back.DOSStub, img.DOSStub) {
		t.Error("DOS stub differs")
	}
}

func TestDOSStubContainsMessage(t *testing.T) {
	img := buildTestImage(t)
	if !strings.Contains(string(img.DOSStub), "This program cannot be run in DOS mode") {
		t.Error("DOS stub missing classic message")
	}
}

func TestMagics(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	if raw[0] != 'M' || raw[1] != 'Z' {
		t.Errorf("image does not start with MZ: % x", raw[:2])
	}
	lfanew := img.DOS.ELfanew
	if string(raw[lfanew:lfanew+2]) != "PE" {
		t.Errorf("NT signature missing at e_lfanew")
	}
}

func TestParseRejectsBadDOSMagic(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	raw[0] = 'X'
	if _, err := Parse(raw); !errors.Is(err, ErrFormat) {
		t.Errorf("Parse with bad DOS magic: err = %v, want ErrFormat", err)
	}
}

func TestParseRejectsBadNTSignature(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	raw[img.DOS.ELfanew] = 'X'
	if _, err := Parse(raw); !errors.Is(err, ErrFormat) {
		t.Errorf("Parse with bad NT signature: err = %v, want ErrFormat", err)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	for _, n := range []int{0, 10, DOSHeaderSize, int(img.DOS.ELfanew) + 10} {
		if _, err := Parse(raw[:n]); err == nil {
			t.Errorf("Parse of %d-byte prefix succeeded", n)
		}
	}
}

func TestParseRejectsOutOfRangeLfanew(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	raw[0x3C] = 0xFF
	raw[0x3D] = 0xFF
	raw[0x3E] = 0xFF
	raw[0x3F] = 0x7F
	if _, err := Parse(raw); !errors.Is(err, ErrFormat) {
		t.Errorf("Parse with huge e_lfanew: err = %v, want ErrFormat", err)
	}
}

func TestParseRejectsSectionBeyondImage(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	// Corrupt the first section header's SizeOfRawData (offset 16 within
	// the header) to a huge value.
	secOff := img.DOS.ELfanew + 4 + FileHeaderSize + OptionalHeader32Size
	raw[secOff+16] = 0xFF
	raw[secOff+17] = 0xFF
	raw[secOff+18] = 0xFF
	if _, err := Parse(raw); !errors.Is(err, ErrFormat) {
		t.Errorf("Parse with oversized section: err = %v, want ErrFormat", err)
	}
}

func TestValidateCatchesSectionCountMismatch(t *testing.T) {
	img := buildTestImage(t)
	img.File.NumberOfSections++
	if err := img.Validate(); !errors.Is(err, ErrFormat) {
		t.Errorf("Validate: err = %v, want ErrFormat", err)
	}
}

func TestValidateCatchesUnalignedSection(t *testing.T) {
	img := buildTestImage(t)
	img.Sections[0].Header.VirtualAddress += 8
	if err := img.Validate(); !errors.Is(err, ErrFormat) {
		t.Errorf("Validate: err = %v, want ErrFormat", err)
	}
}

func TestValidateCatchesAlignmentInversion(t *testing.T) {
	img := buildTestImage(t)
	img.Optional.FileAlignment = img.Optional.SectionAlignment * 2
	if err := img.Validate(); !errors.Is(err, ErrFormat) {
		t.Errorf("Validate: err = %v, want ErrFormat", err)
	}
}

func TestSectionLookup(t *testing.T) {
	img := buildTestImage(t)
	if img.Section(".text") == nil {
		t.Fatal(".text not found")
	}
	if img.Section(".bogus") != nil {
		t.Error("nonexistent section found")
	}
	sec := img.SectionAt(0x1004)
	if sec == nil || sec.Header.NameString() != ".text" {
		t.Errorf("SectionAt(0x1004) = %v", sec)
	}
	if img.SectionAt(0x800) != nil {
		t.Error("SectionAt inside headers returned a section")
	}
	if img.SectionAt(0xFFFF0000) != nil {
		t.Error("SectionAt far beyond image returned a section")
	}
}

func TestCloneIsDeep(t *testing.T) {
	img := buildTestImage(t)
	c := img.Clone()
	c.Sections[0].Data[0] ^= 0xFF
	c.DOSStub[0] ^= 0xFF
	orig := buildTestImage(t)
	if img.Sections[0].Data[0] != orig.Sections[0].Data[0] {
		t.Error("mutating clone affected original section data")
	}
	if img.DOSStub[0] != orig.DOSStub[0] {
		t.Error("mutating clone affected original stub")
	}
}

func TestBuilderDeterminism(t *testing.T) {
	a, _ := buildTestImage(t).Bytes()
	b, _ := buildTestImage(t).Bytes()
	if !bytes.Equal(a, b) {
		t.Error("two identical builds differ")
	}
}

func TestChecksumSelfConsistent(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	want := Checksum(raw, checksumFieldOffset(img))
	if img.Optional.CheckSum != want {
		t.Errorf("stored checksum %#x != recomputed %#x", img.Optional.CheckSum, want)
	}
}

func TestChecksumDetectsFlip(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	base := Checksum(raw, checksumFieldOffset(img))
	raw[img.Sections[0].Header.PointerToRawData] ^= 0x01
	if Checksum(raw, checksumFieldOffset(img)) == base {
		t.Error("checksum unchanged after a bit flip")
	}
}

func TestChecksumIgnoresChecksumField(t *testing.T) {
	img := buildTestImage(t)
	raw, _ := img.Bytes()
	off := checksumFieldOffset(img)
	base := Checksum(raw, off)
	raw[off] ^= 0xFF
	if Checksum(raw, off) != base {
		t.Error("checksum depends on the checksum field itself")
	}
}

func TestHeadersSize(t *testing.T) {
	img := buildTestImage(t)
	want := uint32(DOSHeaderSize+len(img.DOSStub)) + 4 + FileHeaderSize +
		OptionalHeader32Size + uint32(len(img.Sections))*SectionHeaderSize
	if got := img.HeadersSize(); got != want {
		t.Errorf("HeadersSize = %d, want %d", got, want)
	}
	if img.Optional.SizeOfHeaders < want {
		t.Errorf("SizeOfHeaders %d < headers %d", img.Optional.SizeOfHeaders, want)
	}
}

func TestBytesRejectsInvalid(t *testing.T) {
	img := buildTestImage(t)
	img.File.NumberOfSections = 0
	if _, err := img.Bytes(); err == nil {
		t.Error("Bytes of invalid image succeeded")
	}
}

func TestNativeSubsystemAndMachine(t *testing.T) {
	img := buildTestImage(t)
	if img.Optional.Subsystem != SubsystemNative {
		t.Errorf("subsystem = %d, want native", img.Optional.Subsystem)
	}
	if img.File.Machine != MachineI386 {
		t.Errorf("machine = %#x, want i386", img.File.Machine)
	}
	if img.Optional.MajorOperatingSystemVersion != 5 || img.Optional.MinorOperatingSystemVersion != 1 {
		t.Error("OS version is not 5.1 (XP)")
	}
}

func TestEntryPointDefaultsToCode(t *testing.T) {
	img := buildTestImage(t)
	if img.Optional.AddressOfEntryPoint != img.Optional.BaseOfCode {
		t.Errorf("entry %#x != BaseOfCode %#x", img.Optional.AddressOfEntryPoint, img.Optional.BaseOfCode)
	}
}

func TestSetEntryPoint(t *testing.T) {
	b := NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x200), ScnCntCode|ScnMemExecute|ScnMemRead)
	b.SetEntryPoint(0x1040)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.Optional.AddressOfEntryPoint != 0x1040 {
		t.Errorf("entry = %#x", img.Optional.AddressOfEntryPoint)
	}
}

func TestVirtualSizeLargerThanRaw(t *testing.T) {
	b := NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x200), ScnCntCode|ScnMemExecute|ScnMemRead)
	b.AddSectionWithVirtualSize(".bss", nil, 0x2000, ScnCntUninitializedData|ScnMemRead|ScnMemWrite)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bss := img.Section(".bss")
	if bss.Header.VirtualSize != 0x2000 || bss.Header.SizeOfRawData != 0 {
		t.Errorf("bss vs=%#x raw=%#x", bss.Header.VirtualSize, bss.Header.SizeOfRawData)
	}
	if img.Optional.SizeOfImage < bss.Header.VirtualAddress+0x2000 {
		t.Error("SizeOfImage does not cover .bss")
	}
}

func TestDLLCharacteristic(t *testing.T) {
	b := NewBuilder(0x10000)
	b.SetDLL()
	b.AddSection(".text", make([]byte, 0x100), ScnCntCode|ScnMemExecute|ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.File.Characteristics&FileDLL == 0 {
		t.Error("DLL flag not set")
	}
}

func TestCustomFileAlignment(t *testing.T) {
	mk := func(align uint32) *Image {
		b := NewBuilder(0x10000)
		if align != 0 {
			b.SetFileAlignment(align)
		}
		b.AddSection(".text", make([]byte, 0x333), ScnCntCode|ScnMemExecute|ScnMemRead)
		b.AddSection(".data", make([]byte, 0x111), ScnCntInitializedData|ScnMemRead)
		img, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	a := mk(0)      // default 0x200
	c := mk(0x1000) // rebuild alignment
	if a.Optional.FileAlignment == c.Optional.FileAlignment {
		t.Fatal("alignments equal")
	}
	// Every section's raw pointer should differ between the two builds
	// (the property the DLL-hook experiment relies on).
	for i := range a.Sections {
		if a.Sections[i].Header.PointerToRawData == c.Sections[i].Header.PointerToRawData &&
			a.Sections[i].Header.SizeOfRawData == c.Sections[i].Header.SizeOfRawData {
			t.Errorf("section %d raw layout identical across alignments", i)
		}
	}
	// Virtual layout must be preserved.
	for i := range a.Sections {
		if a.Sections[i].Header.VirtualAddress != c.Sections[i].Header.VirtualAddress {
			t.Errorf("section %d VA moved: %#x -> %#x", i,
				a.Sections[i].Header.VirtualAddress, c.Sections[i].Header.VirtualAddress)
		}
	}
}

func TestSetDOSStubRawPreserved(t *testing.T) {
	b := NewBuilder(0x10000)
	stub := buildDOSStub("Custom message here........$")
	b.SetDOSStubRaw(stub)
	b.AddSection(".text", make([]byte, 0x100), ScnCntCode|ScnMemExecute|ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.DOSStub, stub) {
		t.Error("stub not preserved verbatim")
	}
}

// TestParseReportsWidthPerMagic: the optional-header magic picks the
// layout, and Parse reports the matching machine and address width.
func TestParseReportsWidthPerMagic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		b       *Builder
		magic   uint16
		machine uint16
		width   int
	}{
		{"PE32", NewBuilder(0x10000), OptionalMagic32, MachineI386, 4},
		{"PE32+", NewBuilder64(0x180010000), OptionalMagic64, MachineAMD64, 8},
	} {
		tc.b.AddSection(".text", make([]byte, 0x200), ScnCntCode|ScnMemExecute|ScnMemRead)
		tc.b.SetRelocSites([]uint32{0x1010})
		built, err := tc.b.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, err := built.Bytes()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		img, err := Parse(raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if img.Optional.Magic != tc.magic || img.File.Machine != tc.machine || img.AddrWidth() != tc.width {
			t.Errorf("%s: magic %#x machine %#x width %d", tc.name, img.Optional.Magic, img.File.Machine, img.AddrWidth())
		}
		if img.Optional != built.Optional {
			t.Errorf("%s: optional header differs after round trip", tc.name)
		}
		sites, err := img.RelocSites()
		if err != nil || len(sites) != 1 || sites[0] != 0x1010 {
			t.Errorf("%s: reloc sites %v (%v)", tc.name, sites, err)
		}
	}
}

// TestParseRejectsOptionalSizeMagicMismatch: SizeOfOptionalHeader must be
// the size the magic names, so a PE32 header cannot claim PE32+ fields or
// the other way round.
func TestParseRejectsOptionalSizeMagicMismatch(t *testing.T) {
	for _, b := range []*Builder{NewBuilder(0x10000), NewBuilder64(0x180010000)} {
		b.AddSection(".text", make([]byte, 0x200), ScnCntCode|ScnMemExecute|ScnMemRead)
		img, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := img.Bytes()
		other := uint16(OptionalHeader64Size)
		if img.AddrWidth() == 8 {
			other = OptionalHeader32Size
		}
		// SizeOfOptionalHeader sits 16 bytes into the file header.
		binary.LittleEndian.PutUint16(raw[img.DOS.ELfanew+4+16:], other)
		if _, err := Parse(raw); !errors.Is(err, ErrFormat) {
			t.Errorf("magic %#x with SizeOfOptionalHeader %d: err = %v", img.Optional.Magic, other, err)
		}
	}
}
