package pe

// Layout maps the image the way the kernel module loader does: a buffer of
// SizeOfImage bytes indexed by RVA, with the headers at offset 0 and each
// section's raw data copied to its VirtualAddress (tails beyond
// SizeOfRawData zero-filled). No relocations are applied; call
// ApplyRelocations with the load delta afterwards.
func (img *Image) Layout() ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	mem := make([]byte, img.Optional.SizeOfImage)

	// Headers occupy the front of the mapping exactly as they appear on
	// disk (truncated to SizeOfHeaders).
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
			n = h.VirtualSize // loader maps at most VirtualSize bytes
		}
		if uint64(h.VirtualAddress)+uint64(n) > uint64(len(mem)) {
			return nil, formatErr("section %q extends past SizeOfImage", h.NameString())
		}
		copy(mem[h.VirtualAddress:h.VirtualAddress+n], img.Sections[i].Data[:n])
	}
	return mem, nil
}

// LayoutAt maps the image and relocates it for a load at base. It returns
// the relocated in-memory representation, exactly what a VM's guest memory
// holds for this module. A PE32 image takes a 32-bit base and rewrites
// 4-byte sites; a PE32+ image rewrites 8-byte sites.
func (img *Image) LayoutAt(base uint64) ([]byte, error) {
	mem, err := img.Layout()
	if err != nil {
		return nil, err
	}
	if base != img.Optional.ImageBase {
		sites, err := img.RelocSites()
		if err != nil {
			return nil, err
		}
		if err := ApplyRelocations(mem, sites, base-img.Optional.ImageBase, img.AddrWidth()); err != nil {
			return nil, err
		}
	}
	return mem, nil
}
