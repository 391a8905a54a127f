package pe

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// HeadersSize returns the exact number of bytes occupied by all headers:
// DOS header + DOS stub + NT headers + section table (before any
// FileAlignment padding).
func (img *Image) HeadersSize() uint32 {
	return uint32(DOSHeaderSize+len(img.DOSStub)) +
		4 + FileHeaderSize + optionalHeaderSize(img.Optional.Magic) +
		uint32(len(img.Sections))*SectionHeaderSize
}

// Bytes serializes the image to its on-disk file representation: headers
// padded to SizeOfHeaders, followed by each section's raw data at its
// PointerToRawData offset.
func (img *Image) Bytes() ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	total := img.Optional.SizeOfHeaders
	for i := range img.Sections {
		h := &img.Sections[i].Header
		end := h.PointerToRawData + h.SizeOfRawData
		if end > total {
			total = end
		}
	}
	out := make([]byte, total)

	var buf bytes.Buffer
	le := binary.LittleEndian
	if err := binary.Write(&buf, le, &img.DOS); err != nil {
		return nil, fmt.Errorf("pe: serialize DOS header: %w", err)
	}
	buf.Write(img.DOSStub)
	if uint32(buf.Len()) != img.DOS.ELfanew {
		return nil, formatErr("ELfanew %#x does not match DOS header+stub size %#x",
			img.DOS.ELfanew, buf.Len())
	}
	if err := binary.Write(&buf, le, uint32(NTSignature)); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, le, &img.File); err != nil {
		return nil, fmt.Errorf("pe: serialize file header: %w", err)
	}
	opt := make([]byte, optionalHeaderSize(img.Optional.Magic))
	img.Optional.walk(&fieldCodec{b: opt, put: true})
	buf.Write(opt)
	for i := range img.Sections {
		if err := binary.Write(&buf, le, &img.Sections[i].Header); err != nil {
			return nil, fmt.Errorf("pe: serialize section header %d: %w", i, err)
		}
	}
	if uint32(buf.Len()) > img.Optional.SizeOfHeaders {
		return nil, formatErr("headers (%d bytes) exceed SizeOfHeaders %d",
			buf.Len(), img.Optional.SizeOfHeaders)
	}
	copy(out, buf.Bytes())

	for i := range img.Sections {
		h := &img.Sections[i].Header
		copy(out[h.PointerToRawData:h.PointerToRawData+h.SizeOfRawData], img.Sections[i].Data)
	}
	return out, nil
}

// Parse decodes an on-disk PE32 or PE32+ image: the optional-header magic
// picks the layout, and SizeOfOptionalHeader must match it. It validates
// every structural invariant it relies on and returns errors wrapping
// ErrFormat on malformed input; it never panics on truncated or corrupt
// data.
func Parse(raw []byte) (*Image, error) {
	if len(raw) < DOSHeaderSize {
		return nil, formatErr("image too small for DOS header (%d bytes)", len(raw))
	}
	le := binary.LittleEndian
	img := new(Image)
	if err := binary.Read(bytes.NewReader(raw[:DOSHeaderSize]), le, &img.DOS); err != nil {
		return nil, fmt.Errorf("pe: parse DOS header: %w", err)
	}
	if img.DOS.EMagic != DOSMagic {
		return nil, formatErr("bad DOS magic %#04x", img.DOS.EMagic)
	}
	lfanew := img.DOS.ELfanew
	// Both optional-header layouts open with the 2-byte magic.
	if lfanew < DOSHeaderSize || uint64(lfanew)+4+FileHeaderSize+2 > uint64(len(raw)) {
		return nil, formatErr("ELfanew %#x out of range", lfanew)
	}
	img.DOSStub = append([]byte(nil), raw[DOSHeaderSize:lfanew]...)

	if sig := le.Uint32(raw[lfanew:]); sig != NTSignature {
		return nil, formatErr("bad NT signature %#08x", sig)
	}
	off := lfanew + 4
	if err := binary.Read(bytes.NewReader(raw[off:off+FileHeaderSize]), le, &img.File); err != nil {
		return nil, fmt.Errorf("pe: parse file header: %w", err)
	}
	off += FileHeaderSize
	magic := le.Uint16(raw[off:])
	size := optionalHeaderSize(magic)
	if size == 0 {
		return nil, formatErr("bad optional-header magic %#04x", magic)
	}
	if uint32(img.File.SizeOfOptionalHeader) != size {
		return nil, formatErr("SizeOfOptionalHeader %d does not match magic %#04x (want %d)",
			img.File.SizeOfOptionalHeader, magic, size)
	}
	if uint64(off)+uint64(size) > uint64(len(raw)) {
		return nil, formatErr("optional header of %d bytes at %#x exceeds image size %#x", size, off, len(raw))
	}
	img.Optional.walk(&fieldCodec{b: raw[off : off+size]})
	off += size
	// The headers are part of the file; a larger claim would make Bytes
	// and Layout allocate up to 4 GiB for a few bytes of input.
	if uint64(img.Optional.SizeOfHeaders) > uint64(len(raw)) {
		return nil, formatErr("SizeOfHeaders %#x exceeds image size %#x", img.Optional.SizeOfHeaders, len(raw))
	}

	n := int(img.File.NumberOfSections)
	if uint64(off)+uint64(n)*SectionHeaderSize > uint64(len(raw)) {
		return nil, formatErr("section table for %d sections exceeds image size", n)
	}
	img.Sections = make([]Section, n)
	for i := 0; i < n; i++ {
		if err := binary.Read(bytes.NewReader(raw[off:off+SectionHeaderSize]), le, &img.Sections[i].Header); err != nil {
			return nil, fmt.Errorf("pe: parse section header %d: %w", i, err)
		}
		off += SectionHeaderSize
	}
	for i := 0; i < n; i++ {
		h := &img.Sections[i].Header
		end := uint64(h.PointerToRawData) + uint64(h.SizeOfRawData)
		if end > uint64(len(raw)) {
			return nil, formatErr("section %q raw data [%#x,%#x) exceeds image size %#x",
				h.NameString(), h.PointerToRawData, end, len(raw))
		}
		img.Sections[i].Data = append([]byte(nil), raw[h.PointerToRawData:end]...)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// fieldCodec moves header fields between a struct and their little-endian
// wire bytes. One walk over the fields serves both directions: with put set
// it encodes into b, otherwise it decodes from b. b must hold the whole
// header.
type fieldCodec struct {
	b   []byte
	off int
	put bool
}

func (c *fieldCodec) u8(v *uint8) {
	if c.put {
		c.b[c.off] = *v
	} else {
		*v = c.b[c.off]
	}
	c.off++
}

func (c *fieldCodec) u16(v *uint16) {
	if c.put {
		binary.LittleEndian.PutUint16(c.b[c.off:], *v)
	} else {
		*v = binary.LittleEndian.Uint16(c.b[c.off:])
	}
	c.off += 2
}

func (c *fieldCodec) u32(v *uint32) {
	if c.put {
		binary.LittleEndian.PutUint32(c.b[c.off:], *v)
	} else {
		*v = binary.LittleEndian.Uint32(c.b[c.off:])
	}
	c.off += 4
}

// word moves a field that is 8 bytes wide in PE32+ and 4 bytes in PE32.
func (c *fieldCodec) word(v *uint64, wide bool) {
	if !wide {
		w := uint32(*v)
		c.u32(&w)
		*v = uint64(w)
		return
	}
	if c.put {
		binary.LittleEndian.PutUint64(c.b[c.off:], *v)
	} else {
		*v = binary.LittleEndian.Uint64(c.b[c.off:])
	}
	c.off += 8
}

// walk visits the optional header's fields in the wire order Magic names.
// Decoding reads Magic first, so the rest of the walk sees the width.
func (o *OptionalHeader) walk(c *fieldCodec) {
	c.u16(&o.Magic)
	wide := o.Magic == OptionalMagic64
	c.u8(&o.MajorLinkerVersion)
	c.u8(&o.MinorLinkerVersion)
	for _, v := range []*uint32{&o.SizeOfCode, &o.SizeOfInitializedData,
		&o.SizeOfUninitializedData, &o.AddressOfEntryPoint, &o.BaseOfCode} {
		c.u32(v)
	}
	if !wide {
		c.u32(&o.BaseOfData)
	}
	c.word(&o.ImageBase, wide)
	c.u32(&o.SectionAlignment)
	c.u32(&o.FileAlignment)
	for _, v := range []*uint16{&o.MajorOperatingSystemVersion, &o.MinorOperatingSystemVersion,
		&o.MajorImageVersion, &o.MinorImageVersion, &o.MajorSubsystemVersion, &o.MinorSubsystemVersion} {
		c.u16(v)
	}
	for _, v := range []*uint32{&o.Win32VersionValue, &o.SizeOfImage, &o.SizeOfHeaders, &o.CheckSum} {
		c.u32(v)
	}
	c.u16(&o.Subsystem)
	c.u16(&o.DllCharacteristics)
	for _, v := range []*uint64{&o.SizeOfStackReserve, &o.SizeOfStackCommit,
		&o.SizeOfHeapReserve, &o.SizeOfHeapCommit} {
		c.word(v, wide)
	}
	c.u32(&o.LoaderFlags)
	c.u32(&o.NumberOfRvaAndSizes)
	for i := range o.DataDirectory {
		c.u32(&o.DataDirectory[i].VirtualAddress)
		c.u32(&o.DataDirectory[i].Size)
	}
}

// Clone returns a deep copy of the image; mutating the clone (as the
// infection toolkit does) never aliases the original's section data.
func (img *Image) Clone() *Image {
	out := *img
	out.DOSStub = append([]byte(nil), img.DOSStub...)
	out.Sections = make([]Section, len(img.Sections))
	for i := range img.Sections {
		out.Sections[i].Header = img.Sections[i].Header
		out.Sections[i].Data = append([]byte(nil), img.Sections[i].Data...)
	}
	return &out
}
