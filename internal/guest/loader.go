package guest

import (
	"fmt"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// LoadModule maps the named disk image into kernel memory the way the
// Windows module loader does:
//
//  1. parse the PE image and pick a load base,
//  2. map SizeOfImage bytes and copy headers + sections to their RVAs,
//  3. apply base relocations for the delta between the chosen base and the
//     preferred ImageBase (this is the step that plants absolute virtual
//     addresses in the code, making in-memory hashes differ across VMs),
//  4. allocate an LDR_DATA_TABLE_ENTRY and name buffers in pool, and
//  5. link the entry into PsLoadedModuleList via in-memory list surgery.
//
// The image must have the guest's width.
func (g *Guest) LoadModule(filename string) (*LoadedModule, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	raw, ok := g.disk[filename]
	if !ok {
		return nil, fmt.Errorf("guest %q: no file %s on disk", g.name, filename)
	}
	img, err := pe.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("guest %q: parsing %s: %w", g.name, filename, err)
	}
	return g.load(filename, img)
}

// load maps an already-parsed image (LoadModule steps 1-5). Callers must
// hold g.mu (or be inside New, before the guest is shared).
func (g *Guest) load(filename string, img *pe.Image) (*LoadedModule, error) {
	key := foldName(filename)
	if _, dup := g.modules[key]; dup {
		return nil, fmt.Errorf("guest %q: module %s already loaded", g.name, filename)
	}
	l := layoutOf(g.as)
	if img.AddrWidth() != l.ldr.PtrSize {
		return nil, fmt.Errorf("guest %q: %s is a %d-bit image in a %d-bit guest",
			g.name, filename, 8*img.AddrWidth(), 8*l.ldr.PtrSize)
	}
	base, err := g.allocModuleBase(img.Optional.SizeOfImage)
	if err != nil {
		return nil, err
	}
	mem, err := img.LayoutAt(base)
	if err != nil {
		return nil, fmt.Errorf("guest %q: laying out %s: %w", g.name, filename, err)
	}
	if _, err := g.as.AllocAndMap(base, img.Optional.SizeOfImage, mm.PteWritable); err != nil {
		return nil, fmt.Errorf("guest %q: mapping %s: %w", g.name, filename, err)
	}
	if err := g.as.Write(base, mem); err != nil {
		return nil, fmt.Errorf("guest %q: copying %s: %w", g.name, filename, err)
	}

	mod := &LoadedModule{
		Name:        filename,
		Base:        base,
		SizeOfImage: img.Optional.SizeOfImage,
		EntryPoint:  base + uint64(img.Optional.AddressOfEntryPoint),
	}
	if err := g.linkLoaderEntry(l, mod); err != nil {
		return nil, err
	}
	g.modules[key] = mod
	g.res.noteModuleEvent()
	return mod, nil
}

// linkLoaderEntry creates the LDR_DATA_TABLE_ENTRY in pool and inserts it
// at the tail of PsLoadedModuleList (InsertTailList semantics, so the list
// preserves load order — hence "InLoadOrderLinks").
func (g *Guest) linkLoaderEntry(l *layout, mod *LoadedModule) error {
	baseName := mod.Name
	fullName := `\SystemRoot\System32\drivers\` + mod.Name

	baseBuf := nt.EncodeUTF16(baseName)
	fullBuf := nt.EncodeUTF16(fullName)
	baseBufVA, err := g.pool.alloc(uint32(len(baseBuf)), 2)
	if err != nil {
		return err
	}
	if err := g.as.Write(baseBufVA, baseBuf); err != nil {
		return err
	}
	fullBufVA, err := g.pool.alloc(uint32(len(fullBuf)), 2)
	if err != nil {
		return err
	}
	if err := g.as.Write(fullBufVA, fullBuf); err != nil {
		return err
	}
	// Pool blocks are aligned to two pointers (8 bytes on x86, 16 on x64).
	entryVA, err := g.pool.alloc(l.ldr.LdrEntrySize, uint32(2*l.ldr.PtrSize))
	if err != nil {
		return err
	}

	// Read the current head to find the tail.
	head, err := g.readListEntry(l, l.moduleList)
	if err != nil {
		return err
	}
	entry := nt.LdrDataTableEntry{
		InLoadOrderLinks: nt.ListEntry{Flink: l.moduleList, Blink: head.Blink},
		DllBase:          mod.Base,
		EntryPoint:       mod.EntryPoint,
		SizeOfImage:      mod.SizeOfImage,
		FullDllName: nt.UnicodeString{
			Length:        uint16(len(fullBuf)),
			MaximumLength: uint16(len(fullBuf)),
			Buffer:        fullBufVA,
		},
		BaseDllName: nt.UnicodeString{
			Length:        uint16(len(baseBuf)),
			MaximumLength: uint16(len(baseBuf)),
			Buffer:        baseBufVA,
		},
		Flags:     0x09004000, // LDRP_ENTRY_PROCESSED | image-dll bits, as XP sets
		LoadCount: 1,
	}
	if err := g.as.Write(entryVA, l.ldr.EncodeLdrEntry(&entry)); err != nil {
		return err
	}
	// tail.Flink = entry
	if err := g.writeListFlink(l, head.Blink, entryVA); err != nil {
		return err
	}
	// head.Blink = entry
	if err := g.writeListBlink(l, l.moduleList, entryVA); err != nil {
		return err
	}
	mod.LdrEntryVA = entryVA
	return nil
}

// UnloadModule removes the module from PsLoadedModuleList and unmaps it.
func (g *Guest) UnloadModule(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := foldName(name)
	mod, ok := g.modules[key]
	if !ok {
		return fmt.Errorf("guest %q: module %s not loaded", g.name, name)
	}
	l := layoutOf(g.as)
	links, err := g.readListEntry(l, mod.LdrEntryVA+uint64(l.ldr.OffInLoadOrderLinks))
	if err != nil {
		return err
	}
	// RemoveEntryList: Blink.Flink = Flink; Flink.Blink = Blink.
	if err := g.writeListFlink(l, links.Blink, links.Flink); err != nil {
		return err
	}
	if err := g.writeListBlink(l, links.Flink, links.Blink); err != nil {
		return err
	}
	if err := g.as.UnmapAndFree(mod.Base, mod.SizeOfImage); err != nil {
		return err
	}
	delete(g.modules, key)
	g.res.noteModuleEvent()
	return nil
}

func (g *Guest) readListEntry(l *layout, va uint64) (nt.ListEntry, error) {
	b := make([]byte, l.ldr.ListEntrySize())
	if err := g.as.Read(va, b); err != nil {
		return nt.ListEntry{}, err
	}
	return l.ldr.DecodeListEntry(b)
}

func (g *Guest) writeListFlink(l *layout, entryVA, flink uint64) error {
	le, err := g.readListEntry(l, entryVA)
	if err != nil {
		return err
	}
	le.Flink = flink
	return g.as.Write(entryVA, l.ldr.EncodeListEntry(le))
}

func (g *Guest) writeListBlink(l *layout, entryVA, blink uint64) error {
	le, err := g.readListEntry(l, entryVA)
	if err != nil {
		return err
	}
	le.Blink = blink
	return g.as.Write(entryVA, l.ldr.EncodeListEntry(le))
}
