// Package amd64 is the 64-bit guest simulator: the Windows-7-x64 side of
// the portability the paper claims ("The ModChecker design is portable to
// any VMM..."). It builds and boots 64-bit guests; it does not check them.
// The checker is internal/core at either address width, reached through a
// vmi handle opened with vmi.Win7x64Profile.
//
//   - pe64.go     — PE32+ images (IMAGE_OPTIONAL_HEADER64, 64-bit
//     ImageBase, DIR64 relocations)
//   - codegen64.go — x86-64 code with MOV RAX,imm64 absolute addresses
//     and RIP-relative (relocation-free) accesses
//   - paging64.go — the guest side of 4-level x86-64 page tables (PML4 →
//     PDPT → PD → PT) over the shared guest-physical substrate
//   - guest64.go  — a 64-bit guest whose loader links nt.X64
//     LDR_DATA_TABLE_ENTRY records into PsLoadedModuleList
package amd64

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"modchecker/internal/pe"
)

// OptionalHeader64 is IMAGE_OPTIONAL_HEADER64: like the 32-bit header but
// with a 64-bit ImageBase and stack/heap sizes, and no BaseOfData.
type OptionalHeader64 struct {
	Magic                       uint16
	MajorLinkerVersion          uint8
	MinorLinkerVersion          uint8
	SizeOfCode                  uint32
	SizeOfInitializedData       uint32
	SizeOfUninitializedData     uint32
	AddressOfEntryPoint         uint32
	BaseOfCode                  uint32
	ImageBase                   uint64
	SectionAlignment            uint32
	FileAlignment               uint32
	MajorOperatingSystemVersion uint16
	MinorOperatingSystemVersion uint16
	MajorImageVersion           uint16
	MinorImageVersion           uint16
	MajorSubsystemVersion       uint16
	MinorSubsystemVersion       uint16
	Win32VersionValue           uint32
	SizeOfImage                 uint32
	SizeOfHeaders               uint32
	CheckSum                    uint32
	Subsystem                   uint16
	DllCharacteristics          uint16
	SizeOfStackReserve          uint64
	SizeOfStackCommit           uint64
	SizeOfHeapReserve           uint64
	SizeOfHeapCommit            uint64
	LoaderFlags                 uint32
	NumberOfRvaAndSizes         uint32
	DataDirectory               [pe.NumDataDirectories]pe.DataDirectory
}

// Image64 is a complete PE32+ image.
type Image64 struct {
	DOS      pe.DOSHeader
	DOSStub  []byte
	File     pe.FileHeader
	Optional OptionalHeader64
	Sections []pe.Section
}

// Section returns the named section, or nil.
func (img *Image64) Section(name string) *pe.Section {
	for i := range img.Sections {
		if img.Sections[i].Header.NameString() == name {
			return &img.Sections[i]
		}
	}
	return nil
}

// Builder64 assembles PE32+ driver images (the x64 analogue of
// pe.Builder).
type Builder64 struct {
	imageBase  uint64
	entryPoint uint32
	dosStub    []byte
	sections   []section64
	relocSites []uint32
}

type section64 struct {
	name  string
	data  []byte
	chars uint32
}

// NewBuilder64 returns a builder for a native x64 image.
func NewBuilder64(imageBase uint64) *Builder64 {
	return &Builder64{
		imageBase: imageBase,
		dosStub:   defaultStub(),
	}
}

func defaultStub() []byte {
	stub := append([]byte{
		0x0E, 0x1F, 0xBA, 0x0E, 0x00, 0xB4, 0x09, 0xCD, 0x21,
		0xB8, 0x01, 0x4C, 0xCD, 0x21,
	}, []byte(pe.DefaultDOSStub)...)
	for (pe.DOSHeaderSize+len(stub))%8 != 0 {
		stub = append(stub, 0)
	}
	return stub
}

// AddSection appends a section; layout follows pe.Builder conventions
// (4 KiB section alignment, 512-byte file alignment).
func (b *Builder64) AddSection(name string, data []byte, chars uint32) uint32 {
	rva := b.nextRVA()
	b.sections = append(b.sections, section64{name, data, chars})
	return rva
}

// SetRelocSites records DIR64 fixup sites (RVAs of 8-byte absolute
// addresses).
func (b *Builder64) SetRelocSites(sites []uint32) { b.relocSites = sites }

// SetEntryPoint sets the entry RVA.
func (b *Builder64) SetEntryPoint(rva uint32) { b.entryPoint = rva }

func (b *Builder64) nextRVA() uint32 {
	rva := uint32(pe.DefaultSectionAlignment)
	for _, s := range b.sections {
		rva += align(uint32(len(s.data)), pe.DefaultSectionAlignment)
	}
	return rva
}

func align(v, a uint32) uint32 { return (v + a - 1) / a * a }

// Build assembles the image.
func (b *Builder64) Build() (*Image64, error) {
	secs := append([]section64(nil), b.sections...)
	var relocDir pe.DataDirectory
	if len(b.relocSites) > 0 {
		table := pe.BuildRelocTableTyped(b.relocSites, pe.RelBasedDir64)
		rva := uint32(pe.DefaultSectionAlignment)
		for _, s := range secs {
			rva += align(uint32(len(s.data)), pe.DefaultSectionAlignment)
		}
		secs = append(secs, section64{".reloc", table,
			pe.ScnCntInitializedData | pe.ScnMemRead | pe.ScnMemDiscardable})
		relocDir = pe.DataDirectory{VirtualAddress: rva, Size: uint32(len(table))}
	}
	img := &Image64{
		DOS: pe.DOSHeader{
			EMagic:  pe.DOSMagic,
			ECblp:   0x90,
			ECp:     3,
			ELfanew: uint32(pe.DOSHeaderSize + len(b.dosStub)),
		},
		DOSStub: append([]byte(nil), b.dosStub...),
		File: pe.FileHeader{
			Machine:              pe.MachineAMD64,
			NumberOfSections:     uint16(len(secs)),
			TimeDateStamp:        0x5F000000,
			SizeOfOptionalHeader: pe.OptionalHeader64Size,
			Characteristics:      pe.FileExecutableImage | pe.FileLocalSymsStripped | pe.FileLineNumsStripped,
		},
		Optional: OptionalHeader64{
			Magic:                       pe.OptionalMagic64,
			MajorLinkerVersion:          14,
			ImageBase:                   b.imageBase,
			SectionAlignment:            pe.DefaultSectionAlignment,
			FileAlignment:               pe.DefaultFileAlignment,
			MajorOperatingSystemVersion: 6, // Windows 7 era
			MinorOperatingSystemVersion: 1,
			MajorSubsystemVersion:       6,
			MinorSubsystemVersion:       1,
			Subsystem:                   pe.SubsystemNative,
			NumberOfRvaAndSizes:         pe.NumDataDirectories,
			AddressOfEntryPoint:         b.entryPoint,
		},
	}
	img.Optional.DataDirectory[pe.DirBaseReloc] = relocDir

	headerBytes := uint32(pe.DOSHeaderSize+len(b.dosStub)) + 4 + pe.FileHeaderSize +
		pe.OptionalHeader64Size + uint32(len(secs))*pe.SectionHeaderSize
	img.Optional.SizeOfHeaders = align(headerBytes, pe.DefaultFileAlignment)

	rva := uint32(pe.DefaultSectionAlignment)
	fileOff := img.Optional.SizeOfHeaders
	for _, s := range secs {
		raw := align(uint32(len(s.data)), pe.DefaultFileAlignment)
		data := make([]byte, raw)
		copy(data, s.data)
		var h pe.SectionHeader
		h.SetName(s.name)
		h.VirtualSize = uint32(len(s.data))
		h.VirtualAddress = rva
		h.SizeOfRawData = raw
		h.PointerToRawData = fileOff
		h.Characteristics = s.chars
		img.Sections = append(img.Sections, pe.Section{Header: h, Data: data})
		if s.chars&(pe.ScnCntCode|pe.ScnMemExecute) != 0 && img.Optional.BaseOfCode == 0 {
			img.Optional.BaseOfCode = rva
		}
		rva += align(uint32(len(s.data)), pe.DefaultSectionAlignment)
		fileOff += raw
	}
	img.Optional.SizeOfImage = rva
	if img.Optional.AddressOfEntryPoint == 0 {
		img.Optional.AddressOfEntryPoint = img.Optional.BaseOfCode
	}
	return img, nil
}

// Bytes serializes the image to its on-disk representation.
func (img *Image64) Bytes() ([]byte, error) {
	total := img.Optional.SizeOfHeaders
	for i := range img.Sections {
		end := img.Sections[i].Header.PointerToRawData + img.Sections[i].Header.SizeOfRawData
		if end > total {
			total = end
		}
	}
	out := make([]byte, total)
	var buf bytes.Buffer
	le := binary.LittleEndian
	if err := binary.Write(&buf, le, &img.DOS); err != nil {
		return nil, err
	}
	buf.Write(img.DOSStub)
	if err := binary.Write(&buf, le, uint32(pe.NTSignature)); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, le, &img.File); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, le, &img.Optional); err != nil {
		return nil, err
	}
	for i := range img.Sections {
		if err := binary.Write(&buf, le, &img.Sections[i].Header); err != nil {
			return nil, err
		}
	}
	if uint32(buf.Len()) > img.Optional.SizeOfHeaders {
		return nil, fmt.Errorf("amd64: headers exceed SizeOfHeaders")
	}
	copy(out, buf.Bytes())
	for i := range img.Sections {
		h := &img.Sections[i].Header
		copy(out[h.PointerToRawData:h.PointerToRawData+h.SizeOfRawData], img.Sections[i].Data)
	}
	return out, nil
}

// Parse64 decodes a PE32+ image.
func Parse64(raw []byte) (*Image64, error) {
	if len(raw) < pe.DOSHeaderSize {
		return nil, fmt.Errorf("amd64: image too small")
	}
	le := binary.LittleEndian
	img := new(Image64)
	if err := binary.Read(bytes.NewReader(raw[:pe.DOSHeaderSize]), le, &img.DOS); err != nil {
		return nil, err
	}
	if img.DOS.EMagic != pe.DOSMagic {
		return nil, fmt.Errorf("amd64: bad DOS magic %#04x", img.DOS.EMagic)
	}
	lfanew := img.DOS.ELfanew
	if uint64(lfanew)+4+pe.FileHeaderSize+pe.OptionalHeader64Size > uint64(len(raw)) {
		return nil, fmt.Errorf("amd64: e_lfanew %#x out of range", lfanew)
	}
	img.DOSStub = append([]byte(nil), raw[pe.DOSHeaderSize:lfanew]...)
	if le.Uint32(raw[lfanew:]) != pe.NTSignature {
		return nil, fmt.Errorf("amd64: bad NT signature")
	}
	off := lfanew + 4
	if err := binary.Read(bytes.NewReader(raw[off:off+pe.FileHeaderSize]), le, &img.File); err != nil {
		return nil, err
	}
	if img.File.Machine != pe.MachineAMD64 {
		return nil, fmt.Errorf("amd64: machine %#04x is not AMD64", img.File.Machine)
	}
	if img.File.SizeOfOptionalHeader != pe.OptionalHeader64Size {
		return nil, fmt.Errorf("amd64: optional header size %d", img.File.SizeOfOptionalHeader)
	}
	off += pe.FileHeaderSize
	if err := binary.Read(bytes.NewReader(raw[off:off+pe.OptionalHeader64Size]), le, &img.Optional); err != nil {
		return nil, err
	}
	if img.Optional.Magic != pe.OptionalMagic64 {
		return nil, fmt.Errorf("amd64: optional magic %#04x is not PE32+", img.Optional.Magic)
	}
	off += pe.OptionalHeader64Size
	n := int(img.File.NumberOfSections)
	if uint64(off)+uint64(n)*pe.SectionHeaderSize > uint64(len(raw)) {
		return nil, fmt.Errorf("amd64: section table exceeds image")
	}
	img.Sections = make([]pe.Section, n)
	for i := 0; i < n; i++ {
		if err := binary.Read(bytes.NewReader(raw[off:off+pe.SectionHeaderSize]), le, &img.Sections[i].Header); err != nil {
			return nil, err
		}
		off += pe.SectionHeaderSize
	}
	for i := 0; i < n; i++ {
		h := &img.Sections[i].Header
		end := uint64(h.PointerToRawData) + uint64(h.SizeOfRawData)
		if end > uint64(len(raw)) {
			return nil, fmt.Errorf("amd64: section %q raw data out of range", h.NameString())
		}
		img.Sections[i].Data = append([]byte(nil), raw[h.PointerToRawData:end]...)
	}
	return img, nil
}

// RelocSites returns the image's DIR64 fixup RVAs.
func (img *Image64) RelocSites() ([]uint32, error) {
	dir := img.Optional.DataDirectory[pe.DirBaseReloc]
	if dir.VirtualAddress == 0 || dir.Size == 0 {
		return nil, nil
	}
	for i := range img.Sections {
		h := &img.Sections[i].Header
		if dir.VirtualAddress >= h.VirtualAddress && dir.VirtualAddress < h.VirtualAddress+h.SizeOfRawData {
			start := dir.VirtualAddress - h.VirtualAddress
			return pe.ParseRelocTable(img.Sections[i].Data[start : start+dir.Size])
		}
	}
	return nil, fmt.Errorf("amd64: reloc directory outside sections")
}

// Layout maps the image by RVA (headers + sections), unrelocated.
func (img *Image64) Layout() ([]byte, error) {
	mem := make([]byte, img.Optional.SizeOfImage)
	raw, err := img.Bytes()
	if err != nil {
		return nil, err
	}
	hdr := img.Optional.SizeOfHeaders
	if uint32(len(raw)) < hdr {
		hdr = uint32(len(raw))
	}
	copy(mem, raw[:hdr])
	for i := range img.Sections {
		h := &img.Sections[i].Header
		n := h.SizeOfRawData
		if h.VirtualSize != 0 && h.VirtualSize < n {
			n = h.VirtualSize
		}
		if uint64(h.VirtualAddress)+uint64(n) > uint64(len(mem)) {
			return nil, fmt.Errorf("amd64: section %q exceeds SizeOfImage", h.NameString())
		}
		copy(mem[h.VirtualAddress:], img.Sections[i].Data[:n])
	}
	return mem, nil
}

// LayoutAt maps and relocates the image for a load at base: every DIR64
// site's 8-byte value is adjusted by the load delta.
func (img *Image64) LayoutAt(base uint64) ([]byte, error) {
	mem, err := img.Layout()
	if err != nil {
		return nil, err
	}
	if base != img.Optional.ImageBase {
		sites, err := img.RelocSites()
		if err != nil {
			return nil, err
		}
		delta := base - img.Optional.ImageBase
		le := binary.LittleEndian
		for _, rva := range sites {
			if int(rva)+8 > len(mem) {
				return nil, fmt.Errorf("amd64: reloc site %#x out of range", rva)
			}
			le.PutUint64(mem[rva:], le.Uint64(mem[rva:])+delta)
		}
	}
	return mem, nil
}
