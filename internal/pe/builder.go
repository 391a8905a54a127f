package pe

import (
	"fmt"
)

// Default alignments used by the builder; these match what Windows driver
// linkers emit at both widths.
const (
	DefaultSectionAlignment = 0x1000
	DefaultFileAlignment    = 0x200
)

// Builder assembles a well-formed PE32 or PE32+ image from sections,
// relocation sites and imports, computing all offsets, alignments and
// directory entries. It is how the repository synthesizes the kernel
// modules (hal.dll, http.sys, dummy.sys, ...) that the real paper takes
// from a Windows XP installation, and their Windows-x64 counterparts.
type Builder struct {
	magic      uint16 // OptionalMagic32 or OptionalMagic64
	imageBase  uint64
	timestamp  uint32
	subsystem  uint16
	chars      uint16
	dosStub    []byte
	entryPoint uint32 // RVA, set via SetEntryPoint
	sections   []builderSection
	relocSites []uint32
	imports    []Import
	exports    *Export
	fileAlign  uint32
}

type builderSection struct {
	name        string
	data        []byte
	virtualSize uint32 // 0 means len(data)
	chars       uint32
}

// NewBuilder returns a Builder for a native (kernel-mode) PE32 image with
// the given preferred load address.
func NewBuilder(imageBase uint32) *Builder {
	return &Builder{
		magic:     OptionalMagic32,
		imageBase: uint64(imageBase),
		timestamp: 0x4F000000, // fixed so cloned VMs build identical files
		subsystem: SubsystemNative,
		chars:     FileExecutableImage | File32BitMachine | FileLineNumsStripped | FileLocalSymsStripped,
		dosStub:   buildDOSStub(DefaultDOSStub),
		fileAlign: DefaultFileAlignment,
	}
}

// NewBuilder64 returns a Builder for a native PE32+ (x86-64) image: 64-bit
// ImageBase, IMAGE_OPTIONAL_HEADER64 and DIR64 relocations. Import
// directories are PE32-only here (their thunks are 32-bit).
func NewBuilder64(imageBase uint64) *Builder {
	b := NewBuilder(0)
	b.magic = OptionalMagic64
	b.imageBase = imageBase
	b.chars = FileExecutableImage | FileLargeAddressAware | FileLineNumsStripped | FileLocalSymsStripped
	return b
}

// buildDOSStub produces the classic 16-bit stub program: a few real-mode
// instructions (print message, exit) followed by the message text. The
// byte values ahead of the text mimic the MS linker stub closely enough
// that the stub-patch experiment behaves as in the paper.
func buildDOSStub(message string) []byte {
	code := []byte{
		0x0E,             // push cs
		0x1F,             // pop ds
		0xBA, 0x0E, 0x00, // mov dx, 0x000e (message offset)
		0xB4, 0x09, // mov ah, 0x09 (print string)
		0xCD, 0x21, // int 0x21
		0xB8, 0x01, 0x4C, // mov ax, 0x4c01 (exit)
		0xCD, 0x21, // int 0x21
	}
	stub := append(code, []byte(message)...)
	// Pad so DOS header + stub lands on an 8-byte boundary for ELfanew.
	for (DOSHeaderSize+len(stub))%8 != 0 {
		stub = append(stub, 0)
	}
	return stub
}

// SetDOSStubMessage replaces the stub message text (used by tests).
func (b *Builder) SetDOSStubMessage(message string) {
	b.dosStub = buildDOSStub(message)
}

// SetDOSStubRaw installs stub bytes verbatim; image rebuilders use this to
// preserve the original stub exactly.
func (b *Builder) SetDOSStubRaw(stub []byte) {
	b.dosStub = append([]byte(nil), stub...)
}

// SetFileAlignment overrides the raw-data alignment. PE rebuilding tools
// (like the CFF Explorer workflow in the paper's DLL-hooking experiment)
// often re-emit images at a coarser alignment, changing every section
// header's file pointers.
func (b *Builder) SetFileAlignment(a uint32) { b.fileAlign = a }

// SetTimestamp overrides the link timestamp recorded in the file header.
func (b *Builder) SetTimestamp(ts uint32) { b.timestamp = ts }

// SetDLL marks the image as a DLL rather than a driver executable.
func (b *Builder) SetDLL() { b.chars |= FileDLL }

// SetEntryPoint records the image entry point as an RVA. It must lie inside
// a section added before Build is called.
func (b *Builder) SetEntryPoint(rva uint32) { b.entryPoint = rva }

// AddSection appends a section with the given raw data and characteristics.
// Sections are laid out in the order added, each starting at the next
// SectionAlignment boundary. It returns the RVA the section will occupy.
func (b *Builder) AddSection(name string, data []byte, chars uint32) uint32 {
	rva := b.nextRVA()
	b.sections = append(b.sections, builderSection{name: name, data: data, chars: chars})
	return rva
}

// AddSectionWithVirtualSize is AddSection for sections whose mapped size
// exceeds their raw size (the loader zero-fills the tail).
func (b *Builder) AddSectionWithVirtualSize(name string, data []byte, virtualSize uint32, chars uint32) uint32 {
	rva := b.nextRVA()
	b.sections = append(b.sections, builderSection{name: name, data: data, virtualSize: virtualSize, chars: chars})
	return rva
}

// nextRVA returns the RVA at which the next added section will start.
func (b *Builder) nextRVA() uint32 {
	return b.rvaAfter(b.sections, b.headersRVA())
}

// headersRVA is the RVA of the first section: the headers rounded up to the
// section alignment.
func (b *Builder) headersRVA() uint32 {
	return DefaultSectionAlignment
}

// SetRelocSites records the RVAs of absolute-address fixup sites: 4-byte
// (HIGHLOW) in a PE32 image, 8-byte (DIR64) in a PE32+ one. Build emits a
// .reloc section for them and points the base-relocation data directory at
// it.
func (b *Builder) SetRelocSites(sites []uint32) { b.relocSites = sites }

// SetImports records the DLL imports. Build emits an INIT section holding
// the import directory and points the import data directory at it.
func (b *Builder) SetImports(imports []Import) { b.imports = imports }

// Build assembles and validates the image.
func (b *Builder) Build() (*Image, error) {
	if b.magic == OptionalMagic64 && len(b.imports) > 0 {
		return nil, fmt.Errorf("pe: build: PE32+ import thunks are not modeled")
	}
	secs := append([]builderSection(nil), b.sections...)

	var importDir, relocDir, exportDir DataDirectory
	if b.exports != nil {
		rva := b.rvaAfter(secs, b.headersRVA())
		blob := BuildExportBlob(*b.exports, rva)
		secs = append(secs, builderSection{
			name:  ".edata",
			data:  blob,
			chars: ScnCntInitializedData | ScnMemRead,
		})
		exportDir = DataDirectory{VirtualAddress: rva, Size: uint32(len(blob))}
	}
	if len(b.imports) > 0 {
		rva := b.importsRVA(secs)
		blob, dirSize, _ := BuildImportBlob(b.imports, rva)
		secs = append(secs, builderSection{
			name:  "INIT",
			data:  blob,
			chars: ScnCntInitializedData | ScnMemRead | ScnMemDiscardable,
		})
		importDir = DataDirectory{VirtualAddress: rva, Size: dirSize}
	}
	if len(b.relocSites) > 0 {
		typ := uint16(RelBasedHighLow)
		if b.magic == OptionalMagic64 {
			typ = RelBasedDir64
		}
		table := BuildRelocTableTyped(b.relocSites, typ)
		rva := b.rvaAfter(secs, b.headersRVA())
		secs = append(secs, builderSection{
			name:  ".reloc",
			data:  table,
			chars: ScnCntInitializedData | ScnMemRead | ScnMemDiscardable,
		})
		relocDir = DataDirectory{VirtualAddress: rva, Size: uint32(len(table))}
	}

	img := &Image{
		DOS: DOSHeader{
			EMagic:    DOSMagic,
			ECblp:     0x90,
			ECp:       3,
			ECparhdr:  4,
			EMaxalloc: 0xFFFF,
			ESP:       0xB8,
			ELfarlc:   0x40,
			ELfanew:   uint32(DOSHeaderSize + len(b.dosStub)),
		},
		DOSStub: append([]byte(nil), b.dosStub...),
		File: FileHeader{
			Machine:              machineFor(b.magic),
			NumberOfSections:     uint16(len(secs)),
			TimeDateStamp:        b.timestamp,
			SizeOfOptionalHeader: uint16(optionalHeaderSize(b.magic)),
			Characteristics:      b.chars,
		},
		Optional: OptionalHeader{
			Magic:                       b.magic,
			MajorLinkerVersion:          7,
			MinorLinkerVersion:          10,
			ImageBase:                   b.imageBase,
			SectionAlignment:            DefaultSectionAlignment,
			FileAlignment:               b.fileAlign,
			MajorOperatingSystemVersion: 5,
			MinorOperatingSystemVersion: 1, // Windows XP
			MajorSubsystemVersion:       5,
			MinorSubsystemVersion:       1,
			Subsystem:                   b.subsystem,
			NumberOfRvaAndSizes:         NumDataDirectories,
			AddressOfEntryPoint:         b.entryPoint,
		},
	}
	img.Optional.DataDirectory[DirExport] = exportDir
	img.Optional.DataDirectory[DirImport] = importDir
	img.Optional.DataDirectory[DirBaseReloc] = relocDir

	headerBytes := uint32(DOSHeaderSize+len(b.dosStub)) + 4 + FileHeaderSize +
		optionalHeaderSize(b.magic) + uint32(len(secs))*SectionHeaderSize
	img.Optional.SizeOfHeaders = align(headerBytes, b.fileAlign)

	rva := b.headersRVA()
	fileOff := img.Optional.SizeOfHeaders
	var sizeOfCode, sizeOfData uint32
	for _, s := range secs {
		vs := s.virtualSize
		if vs == 0 {
			vs = uint32(len(s.data))
		}
		raw := align(uint32(len(s.data)), b.fileAlign)
		data := make([]byte, raw)
		copy(data, s.data)
		var h SectionHeader
		h.SetName(s.name)
		h.VirtualSize = vs
		h.VirtualAddress = rva
		h.SizeOfRawData = raw
		h.PointerToRawData = fileOff
		h.Characteristics = s.chars
		img.Sections = append(img.Sections, Section{Header: h, Data: data})

		if s.chars&(ScnCntCode|ScnMemExecute) != 0 {
			if img.Optional.BaseOfCode == 0 {
				img.Optional.BaseOfCode = rva
			}
			sizeOfCode += raw
		} else if s.chars&ScnCntInitializedData != 0 {
			if img.Optional.BaseOfData == 0 && b.magic == OptionalMagic32 { // PE32+ has no BaseOfData
				img.Optional.BaseOfData = rva
			}
			sizeOfData += raw
		}
		rva += align(maxU32(vs, raw), DefaultSectionAlignment)
		fileOff += raw
	}
	img.Optional.SizeOfCode = sizeOfCode
	img.Optional.SizeOfInitializedData = sizeOfData
	img.Optional.SizeOfImage = rva
	if img.Optional.AddressOfEntryPoint == 0 && img.Optional.BaseOfCode != 0 {
		img.Optional.AddressOfEntryPoint = img.Optional.BaseOfCode
	}
	img.Optional.CheckSum = 0
	raw, err := img.Bytes()
	if err != nil {
		return nil, fmt.Errorf("pe: build: %w", err)
	}
	img.Optional.CheckSum = Checksum(raw, checksumFieldOffset(img))
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("pe: build: %w", err)
	}
	return img, nil
}

// importsRVA computes where the INIT (imports) section will land given the
// sections added so far.
func (b *Builder) importsRVA(secs []builderSection) uint32 {
	return b.rvaAfter(secs, b.headersRVA())
}

func (b *Builder) rvaAfter(secs []builderSection, start uint32) uint32 {
	rva := start
	for _, s := range secs {
		vs := s.virtualSize
		if vs == 0 {
			vs = uint32(len(s.data))
		}
		raw := align(uint32(len(s.data)), b.fileAlign)
		rva += align(maxU32(vs, raw), DefaultSectionAlignment)
	}
	return rva
}

// checksumFieldOffset returns the file offset of the optional header's
// CheckSum field, which the PE checksum algorithm must skip.
func checksumFieldOffset(img *Image) uint32 {
	// e_lfanew + signature(4) + file header(20) + offset of CheckSum within
	// the optional header (64).
	return img.DOS.ELfanew + 4 + FileHeaderSize + 64
}

// Checksum computes the standard PE image checksum over raw, treating the
// 4 bytes at skipOff (the CheckSum field itself) as zero. The algorithm is
// a 16-bit ones'-complement sum folded into 32 bits plus the file length,
// as implemented by CheckSumMappedFile.
func Checksum(raw []byte, skipOff uint32) uint32 {
	var sum uint64
	for i := 0; i+1 < len(raw); i += 2 {
		if uint32(i) == skipOff || uint32(i) == skipOff+2 {
			continue
		}
		w := uint64(raw[i]) | uint64(raw[i+1])<<8
		sum += w
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	if len(raw)%2 == 1 {
		sum += uint64(raw[len(raw)-1])
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	sum = (sum & 0xFFFF) + (sum >> 16)
	return uint32(sum) + uint32(len(raw))
}
