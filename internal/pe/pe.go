// Package pe implements the Portable Executable image format used by
// Windows kernel modules (.sys drivers and kernel-mode DLLs), at both
// address widths: PE32 for 32-bit x86 and PE32+ for x86-64.
//
// The package is a from-scratch, byte-exact implementation of the subset of
// the format that the ModChecker paper exercises: the DOS header and stub,
// the NT headers (signature, file header, optional header and its data
// directories), the section table, section raw data, the base-relocation
// (.reloc) table, and a structurally faithful import directory. Images can
// be built (Builder), serialized to their on-disk byte representation
// (Image.Bytes), parsed back (Parse), laid out in memory the way the kernel
// module loader maps them (Layout), and relocated to an arbitrary base
// address (LayoutAt, ApplyRelocations).
//
// One Image type serves both widths. The optional-header magic picks the
// wire layout (IMAGE_OPTIONAL_HEADER32 or IMAGE_OPTIONAL_HEADER64) and the
// relocation type the builder emits (HIGHLOW or DIR64); the decoded
// OptionalHeader carries every width-dependent field at 64 bits.
//
// All multi-byte fields are little-endian, as on x86.
package pe

import (
	"errors"
	"fmt"
)

// Magic numbers and well-known constants of the PE32 and PE32+ formats.
const (
	// DOSMagic is the IMAGE_DOS_SIGNATURE "MZ" that opens every PE image.
	DOSMagic = 0x5A4D
	// NTSignature is the IMAGE_NT_SIGNATURE "PE\0\0".
	NTSignature = 0x00004550
	// OptionalMagic32 is the IMAGE_NT_OPTIONAL_HDR32_MAGIC for PE32 images.
	OptionalMagic32 = 0x010B
	// OptionalMagic64 is the IMAGE_NT_OPTIONAL_HDR64_MAGIC for PE32+ images.
	OptionalMagic64 = 0x020B

	// MachineI386 identifies 32-bit x86 images.
	MachineI386 = 0x014C
	// MachineAMD64 identifies x86-64 images.
	MachineAMD64 = 0x8664

	// DOSHeaderSize is the size in bytes of IMAGE_DOS_HEADER.
	DOSHeaderSize = 64
	// FileHeaderSize is the size in bytes of IMAGE_FILE_HEADER.
	FileHeaderSize = 20
	// OptionalHeader32Size is the size in bytes of IMAGE_OPTIONAL_HEADER32
	// with the full complement of 16 data directories.
	OptionalHeader32Size = 224
	// OptionalHeader64Size is the size in bytes of IMAGE_OPTIONAL_HEADER64:
	// 64-bit ImageBase and stack/heap sizes, no BaseOfData.
	OptionalHeader64Size = 240
	// SectionHeaderSize is the size in bytes of IMAGE_SECTION_HEADER.
	SectionHeaderSize = 40
	// NumDataDirectories is IMAGE_NUMBEROF_DIRECTORY_ENTRIES.
	NumDataDirectories = 16
)

// Section characteristic flags (IMAGE_SCN_*).
const (
	ScnCntCode              = 0x00000020
	ScnCntInitializedData   = 0x00000040
	ScnCntUninitializedData = 0x00000080
	ScnMemDiscardable       = 0x02000000
	ScnMemNotCached         = 0x04000000
	ScnMemNotPaged          = 0x08000000
	ScnMemShared            = 0x10000000
	ScnMemExecute           = 0x20000000
	ScnMemRead              = 0x40000000
	ScnMemWrite             = 0x80000000
)

// Data directory indices (IMAGE_DIRECTORY_ENTRY_*).
const (
	DirExport    = 0
	DirImport    = 1
	DirResource  = 2
	DirException = 3
	DirSecurity  = 4
	DirBaseReloc = 5
	DirDebug     = 6
	DirIAT       = 12
)

// File header characteristic flags (IMAGE_FILE_*).
const (
	FileExecutableImage   = 0x0002
	FileLineNumsStripped  = 0x0004
	FileLocalSymsStripped = 0x0008
	FileLargeAddressAware = 0x0020
	File32BitMachine      = 0x0100
	FileDLL               = 0x2000
)

// SubsystemNative marks kernel-mode images (drivers).
const SubsystemNative = 1

// DefaultDOSStub is the text carried by the classic DOS stub program. The
// paper's experiment E3 (Section V-B.3) patches three characters of this
// string ("DOS" -> "CHK") and requires that only the DOS-header component
// hash changes.
const DefaultDOSStub = "This program cannot be run in DOS mode.\r\r\n$"

// DOSHeader is IMAGE_DOS_HEADER, the 64-byte legacy header that opens every
// PE image. Only EMagic and ELfanew matter to modern loaders; the remaining
// fields are carried verbatim so that byte-level integrity checks see the
// authentic layout.
type DOSHeader struct {
	EMagic    uint16 // "MZ"
	ECblp     uint16 // bytes on last page of file
	ECp       uint16 // pages in file
	ECrlc     uint16 // relocations
	ECparhdr  uint16 // size of header in paragraphs
	EMinalloc uint16 // minimum extra paragraphs needed
	EMaxalloc uint16 // maximum extra paragraphs needed
	ESS       uint16 // initial (relative) SS value
	ESP       uint16 // initial SP value
	ECsum     uint16 // checksum
	EIP       uint16 // initial IP value
	ECS       uint16 // initial (relative) CS value
	ELfarlc   uint16 // file address of relocation table
	EOvno     uint16 // overlay number
	ERes      [4]uint16
	EOemid    uint16
	EOeminfo  uint16
	ERes2     [10]uint16
	ELfanew   uint32 // file offset of the NT headers
}

// FileHeader is IMAGE_FILE_HEADER.
type FileHeader struct {
	Machine              uint16
	NumberOfSections     uint16
	TimeDateStamp        uint32
	PointerToSymbolTable uint32
	NumberOfSymbols      uint32
	SizeOfOptionalHeader uint16
	Characteristics      uint16
}

// DataDirectory is IMAGE_DATA_DIRECTORY: the RVA and size of one of the 16
// optional-header directory entries (import table, base-relocation table,
// and so on).
type DataDirectory struct {
	VirtualAddress uint32
	Size           uint32
}

// OptionalHeader is IMAGE_OPTIONAL_HEADER32 or IMAGE_OPTIONAL_HEADER64,
// chosen by Magic. The PE32+ layout widens ImageBase and the stack and heap
// sizes to 8 bytes and drops BaseOfData; this struct holds each such field
// at its widest, and the serializer writes the layout Magic names.
type OptionalHeader struct {
	Magic                       uint16
	MajorLinkerVersion          uint8
	MinorLinkerVersion          uint8
	SizeOfCode                  uint32
	SizeOfInitializedData       uint32
	SizeOfUninitializedData     uint32
	AddressOfEntryPoint         uint32
	BaseOfCode                  uint32
	BaseOfData                  uint32 // PE32 only
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
	DataDirectory               [NumDataDirectories]DataDirectory
}

// optionalHeaderSize returns the wire size of the optional header magic
// names, or 0 for an unknown magic.
func optionalHeaderSize(magic uint16) uint32 {
	switch magic {
	case OptionalMagic32:
		return OptionalHeader32Size
	case OptionalMagic64:
		return OptionalHeader64Size
	}
	return 0
}

// machineFor is the file-header Machine each optional-header magic pairs
// with.
func machineFor(magic uint16) uint16 {
	if magic == OptionalMagic64 {
		return MachineAMD64
	}
	return MachineI386
}

// SectionHeader is IMAGE_SECTION_HEADER.
type SectionHeader struct {
	Name                 [8]byte
	VirtualSize          uint32
	VirtualAddress       uint32
	SizeOfRawData        uint32
	PointerToRawData     uint32
	PointerToRelocations uint32
	PointerToLinenumbers uint32
	NumberOfRelocations  uint16
	NumberOfLinenumbers  uint16
	Characteristics      uint32
}

// NameString returns the section name with trailing NUL padding stripped.
func (h *SectionHeader) NameString() string {
	n := 0
	for n < len(h.Name) && h.Name[n] != 0 {
		n++
	}
	return string(h.Name[:n])
}

// SetName stores name into the fixed 8-byte Name field, truncating if
// necessary and NUL-padding the remainder.
func (h *SectionHeader) SetName(name string) {
	var b [8]byte
	copy(b[:], name)
	h.Name = b
}

// IsExecutable reports whether the section contains executable code
// (IMAGE_SCN_MEM_EXECUTE or IMAGE_SCN_CNT_CODE). Module-Parser uses this to
// select the section data whose RVAs must be normalized before hashing.
func (h *SectionHeader) IsExecutable() bool {
	return h.Characteristics&(ScnMemExecute|ScnCntCode) != 0
}

// IsWritable reports whether the section is mapped writable.
func (h *SectionHeader) IsWritable() bool {
	return h.Characteristics&ScnMemWrite != 0
}

// Section pairs a section header with its raw (file) data. Data has
// SizeOfRawData bytes; if VirtualSize exceeds SizeOfRawData the loader
// zero-fills the tail when mapping.
type Section struct {
	Header SectionHeader
	Data   []byte
}

// Image is a complete in-file PE32 or PE32+ image: DOS header + stub, NT
// headers, section table and section data.
type Image struct {
	DOS      DOSHeader
	DOSStub  []byte // bytes between the DOS header and the NT headers
	File     FileHeader
	Optional OptionalHeader
	Sections []Section
}

// AddrWidth returns the image's pointer width in bytes: 8 for PE32+, 4 for
// PE32. It is the width of every absolute address a relocation rewrites.
func (img *Image) AddrWidth() int {
	if img.Optional.Magic == OptionalMagic64 {
		return 8
	}
	return 4
}

// ErrFormat is wrapped by all parse/validation failures in this package.
var ErrFormat = errors.New("pe: invalid image")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Section returns the section with the given name, or nil if absent.
func (img *Image) Section(name string) *Section {
	for i := range img.Sections {
		if img.Sections[i].Header.NameString() == name {
			return &img.Sections[i]
		}
	}
	return nil
}

// SectionAt returns the section whose virtual range contains rva, or nil.
func (img *Image) SectionAt(rva uint32) *Section {
	for i := range img.Sections {
		h := &img.Sections[i].Header
		size := h.VirtualSize
		if size == 0 {
			size = h.SizeOfRawData
		}
		if rva >= h.VirtualAddress && rva < h.VirtualAddress+size {
			return &img.Sections[i]
		}
	}
	return nil
}

// Validate performs structural consistency checks on the image: magic
// values, header sizes, section count, alignment and layout monotonicity.
func (img *Image) Validate() error {
	if img.DOS.EMagic != DOSMagic {
		return formatErr("bad DOS magic %#04x", img.DOS.EMagic)
	}
	size := optionalHeaderSize(img.Optional.Magic)
	if size == 0 {
		return formatErr("bad optional-header magic %#04x", img.Optional.Magic)
	}
	if img.File.Machine != machineFor(img.Optional.Magic) {
		return formatErr("unsupported machine %#04x for optional-header magic %#04x",
			img.File.Machine, img.Optional.Magic)
	}
	if int(img.File.NumberOfSections) != len(img.Sections) {
		return formatErr("NumberOfSections %d but %d sections present",
			img.File.NumberOfSections, len(img.Sections))
	}
	if uint32(img.File.SizeOfOptionalHeader) != size {
		return formatErr("SizeOfOptionalHeader %d, want %d",
			img.File.SizeOfOptionalHeader, size)
	}
	if hs := img.HeadersSize(); img.Optional.SizeOfHeaders < hs {
		return formatErr("SizeOfHeaders %d smaller than the %d bytes of headers", img.Optional.SizeOfHeaders, hs)
	}
	if img.Optional.FileAlignment == 0 || img.Optional.SectionAlignment == 0 {
		return formatErr("zero alignment")
	}
	if img.Optional.SectionAlignment < img.Optional.FileAlignment {
		return formatErr("SectionAlignment %d < FileAlignment %d",
			img.Optional.SectionAlignment, img.Optional.FileAlignment)
	}
	prev := uint32(0)
	for i := range img.Sections {
		h := &img.Sections[i].Header
		if h.VirtualAddress%img.Optional.SectionAlignment != 0 {
			return formatErr("section %q VirtualAddress %#x not aligned",
				h.NameString(), h.VirtualAddress)
		}
		if h.VirtualAddress < prev {
			return formatErr("section %q overlaps predecessor", h.NameString())
		}
		if uint32(len(img.Sections[i].Data)) != h.SizeOfRawData {
			return formatErr("section %q has %d data bytes, header says %d",
				h.NameString(), len(img.Sections[i].Data), h.SizeOfRawData)
		}
		prev = h.VirtualAddress + align(maxU32(h.VirtualSize, h.SizeOfRawData), img.Optional.SectionAlignment)
	}
	if img.Optional.SizeOfImage < prev {
		return formatErr("SizeOfImage %#x smaller than section extent %#x",
			img.Optional.SizeOfImage, prev)
	}
	return nil
}

func align(v, a uint32) uint32 {
	if a == 0 {
		return v
	}
	return (v + a - 1) / a * a
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
