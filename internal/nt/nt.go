// Package nt defines the byte-exact layouts of the Windows kernel
// structures that ModChecker's Module-Searcher traverses inside guest
// memory: LIST_ENTRY, UNICODE_STRING and LDR_DATA_TABLE_ENTRY, plus the
// PsLoadedModuleList convention that links loaded kernel modules into a
// doubly linked list (paper Figure 2).
//
// One codec serves both pointer widths: a Layout is the offset table of one
// width, X86 for 32-bit Windows XP SP2 and X64 for 64-bit Windows 7.
// Pointer fields are carried as uint64 in the decoded structures and
// written at the layout's width. Structures are encoded to and decoded from
// raw byte slices; callers move those bytes through guest memory (the guest
// kernel when booting, the VMI layer when introspecting).
package nt

import (
	"encoding/binary"
	"fmt"
	"unicode/utf16"
)

// Layout is the offset table of one pointer width: where each field of
// LDR_DATA_TABLE_ENTRY sits and how wide a pointer is. LIST_ENTRY is two
// pointers; UNICODE_STRING is two 16-bit lengths padded to pointer
// alignment, then the Buffer pointer.
type Layout struct {
	// PtrSize is the pointer width in bytes (4 or 8).
	PtrSize int
	// LdrEntrySize is the portion of LDR_DATA_TABLE_ENTRY the loader list
	// machinery uses (through TlsIndex, padded).
	LdrEntrySize uint32

	// Field offsets within LDR_DATA_TABLE_ENTRY.
	OffInLoadOrderLinks   uint32
	OffInMemoryOrderLinks uint32
	OffInInitOrderLinks   uint32
	OffDllBase            uint32
	OffEntryPoint         uint32
	OffSizeOfImage        uint32
	OffFullDllName        uint32
	OffBaseDllName        uint32
	OffFlags              uint32
	OffLoadCount          uint32
	OffTlsIndex           uint32
}

// The two layouts: 32-bit XP SP2 and 64-bit Windows 7.
var (
	X86 = &Layout{
		PtrSize: 4, LdrEntrySize: 0x50,
		OffInLoadOrderLinks: 0x00, OffInMemoryOrderLinks: 0x08, OffInInitOrderLinks: 0x10,
		OffDllBase: 0x18, OffEntryPoint: 0x1C, OffSizeOfImage: 0x20,
		OffFullDllName: 0x24, OffBaseDllName: 0x2C,
		OffFlags: 0x34, OffLoadCount: 0x38, OffTlsIndex: 0x3A,
	}
	X64 = &Layout{
		PtrSize: 8, LdrEntrySize: 0x70,
		OffInLoadOrderLinks: 0x00, OffInMemoryOrderLinks: 0x10, OffInInitOrderLinks: 0x20,
		OffDllBase: 0x30, OffEntryPoint: 0x38, OffSizeOfImage: 0x40,
		OffFullDllName: 0x48, OffBaseDllName: 0x58,
		OffFlags: 0x68, OffLoadCount: 0x6C, OffTlsIndex: 0x6E,
	}
)

// ListEntrySize is sizeof(LIST_ENTRY): Flink + Blink pointers.
func (l *Layout) ListEntrySize() int { return 2 * l.PtrSize }

// UnicodeStringSize is sizeof(UNICODE_STRING).
func (l *Layout) UnicodeStringSize() int { return 2 * l.PtrSize }

func (l *Layout) ptr(b []byte) uint64 {
	if l.PtrSize == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return uint64(binary.LittleEndian.Uint32(b))
}

func (l *Layout) putPtr(b []byte, v uint64) {
	if l.PtrSize == 8 {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	binary.LittleEndian.PutUint32(b, uint32(v))
}

// ListEntry is LIST_ENTRY: the forward (FLINK) and backward (BLINK)
// pointers of an intrusive doubly linked list. In PsLoadedModuleList each
// pointer holds the guest virtual address of the *InLoadOrderLinks field*
// of the neighboring LDR_DATA_TABLE_ENTRY (not of the entry's start —
// though for loader entries the field is at offset 0, the distinction
// matters for code reading other lists).
type ListEntry struct {
	Flink uint64
	Blink uint64
}

// EncodeListEntry serializes e at the layout's pointer width.
func (l *Layout) EncodeListEntry(e ListEntry) []byte {
	b := make([]byte, l.ListEntrySize())
	l.putPtr(b, e.Flink)
	l.putPtr(b[l.PtrSize:], e.Blink)
	return b
}

// DecodeListEntry parses a LIST_ENTRY.
func (l *Layout) DecodeListEntry(b []byte) (ListEntry, error) {
	if len(b) < l.ListEntrySize() {
		return ListEntry{}, fmt.Errorf("nt: LIST_ENTRY needs %d bytes, have %d", l.ListEntrySize(), len(b))
	}
	return ListEntry{Flink: l.ptr(b), Blink: l.ptr(b[l.PtrSize:])}, nil
}

// UnicodeString is UNICODE_STRING: a counted UTF-16LE string. Length and
// MaximumLength are in bytes; Buffer is the guest VA of the character data.
type UnicodeString struct {
	Length        uint16
	MaximumLength uint16
	Buffer        uint64
}

// EncodeUnicodeString serializes s at the layout's pointer width.
func (l *Layout) EncodeUnicodeString(s UnicodeString) []byte {
	b := make([]byte, l.UnicodeStringSize())
	binary.LittleEndian.PutUint16(b[0:], s.Length)
	binary.LittleEndian.PutUint16(b[2:], s.MaximumLength)
	l.putPtr(b[l.PtrSize:], s.Buffer)
	return b
}

// DecodeUnicodeString parses a UNICODE_STRING header.
func (l *Layout) DecodeUnicodeString(b []byte) (UnicodeString, error) {
	if len(b) < l.UnicodeStringSize() {
		return UnicodeString{}, fmt.Errorf("nt: UNICODE_STRING needs %d bytes, have %d", l.UnicodeStringSize(), len(b))
	}
	return UnicodeString{
		Length:        binary.LittleEndian.Uint16(b[0:]),
		MaximumLength: binary.LittleEndian.Uint16(b[2:]),
		Buffer:        l.ptr(b[l.PtrSize:]),
	}, nil
}

// EncodeUTF16 converts a Go string to UTF-16LE bytes (no terminator), the
// encoding of UNICODE_STRING buffers.
func EncodeUTF16(s string) []byte {
	u := utf16.Encode([]rune(s))
	b := make([]byte, 2*len(u))
	for i, c := range u {
		binary.LittleEndian.PutUint16(b[2*i:], c)
	}
	return b
}

// DecodeUTF16 converts UTF-16LE bytes back to a Go string. Odd trailing
// bytes are rejected.
func DecodeUTF16(b []byte) (string, error) {
	if len(b)%2 != 0 {
		return "", fmt.Errorf("nt: UTF-16 buffer has odd length %d", len(b))
	}
	u := make([]uint16, len(b)/2)
	for i := range u {
		u[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return string(utf16.Decode(u)), nil
}

// LdrDataTableEntry is LDR_DATA_TABLE_ENTRY, the node type of
// PsLoadedModuleList. Every loaded kernel module has one; Module-Searcher
// walks InLoadOrderLinks and matches BaseDllName (paper Section IV-A).
type LdrDataTableEntry struct {
	InLoadOrderLinks           ListEntry
	InMemoryOrderLinks         ListEntry
	InInitializationOrderLinks ListEntry
	DllBase                    uint64 // guest VA of the module's first byte
	EntryPoint                 uint64
	SizeOfImage                uint32
	FullDllName                UnicodeString
	BaseDllName                UnicodeString
	Flags                      uint32
	LoadCount                  uint16
	TlsIndex                   uint16
}

// EncodeLdrEntry serializes the entry into LdrEntrySize bytes.
func (l *Layout) EncodeLdrEntry(e *LdrDataTableEntry) []byte {
	b := make([]byte, l.LdrEntrySize)
	copy(b[l.OffInLoadOrderLinks:], l.EncodeListEntry(e.InLoadOrderLinks))
	copy(b[l.OffInMemoryOrderLinks:], l.EncodeListEntry(e.InMemoryOrderLinks))
	copy(b[l.OffInInitOrderLinks:], l.EncodeListEntry(e.InInitializationOrderLinks))
	l.putPtr(b[l.OffDllBase:], e.DllBase)
	l.putPtr(b[l.OffEntryPoint:], e.EntryPoint)
	binary.LittleEndian.PutUint32(b[l.OffSizeOfImage:], e.SizeOfImage)
	copy(b[l.OffFullDllName:], l.EncodeUnicodeString(e.FullDllName))
	copy(b[l.OffBaseDllName:], l.EncodeUnicodeString(e.BaseDllName))
	binary.LittleEndian.PutUint32(b[l.OffFlags:], e.Flags)
	binary.LittleEndian.PutUint16(b[l.OffLoadCount:], e.LoadCount)
	binary.LittleEndian.PutUint16(b[l.OffTlsIndex:], e.TlsIndex)
	return b
}

// DecodeLdrEntry parses an LDR_DATA_TABLE_ENTRY from raw guest bytes. The
// entry is returned by value: the Searcher decodes one per loaded module
// per VM per sweep, and none of them needs to outlive the walk.
func (l *Layout) DecodeLdrEntry(b []byte) (LdrDataTableEntry, error) {
	if len(b) < int(l.LdrEntrySize) {
		return LdrDataTableEntry{}, fmt.Errorf("nt: LDR_DATA_TABLE_ENTRY needs %#x bytes, have %#x", l.LdrEntrySize, len(b))
	}
	// The length check covers every field below.
	e := LdrDataTableEntry{
		DllBase:     l.ptr(b[l.OffDllBase:]),
		EntryPoint:  l.ptr(b[l.OffEntryPoint:]),
		SizeOfImage: binary.LittleEndian.Uint32(b[l.OffSizeOfImage:]),
		Flags:       binary.LittleEndian.Uint32(b[l.OffFlags:]),
		LoadCount:   binary.LittleEndian.Uint16(b[l.OffLoadCount:]),
		TlsIndex:    binary.LittleEndian.Uint16(b[l.OffTlsIndex:]),
	}
	e.InLoadOrderLinks, _ = l.DecodeListEntry(b[l.OffInLoadOrderLinks:])
	e.InMemoryOrderLinks, _ = l.DecodeListEntry(b[l.OffInMemoryOrderLinks:])
	e.InInitializationOrderLinks, _ = l.DecodeListEntry(b[l.OffInInitOrderLinks:])
	e.FullDllName, _ = l.DecodeUnicodeString(b[l.OffFullDllName:])
	e.BaseDllName, _ = l.DecodeUnicodeString(b[l.OffBaseDllName:])
	return e, nil
}
