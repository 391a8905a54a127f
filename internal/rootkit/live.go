package rootkit

import (
	"encoding/binary"
	"fmt"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
)

// InlineHookLive installs an inline hook directly in the *loaded* module's
// memory, the way a resident rootkit (the paper cites TCPIRPHOOK and
// Win32.Chatter) patches a running kernel. It reads the module's in-memory
// PE headers through the guest's own address space — the attacker runs
// inside the guest and has full access — locates .text, and performs the
// same jmp-to-cave transformation as InlineHookImage.
func InlineHookLive(g *guest.Guest, moduleName string) (*HookReport, error) {
	mod := g.Module(moduleName)
	if mod == nil {
		return nil, fmt.Errorf("rootkit: %s not loaded in %s", moduleName, g.Name())
	}
	as := g.AddressSpace()

	// Read the headers page to find .text and the entry point.
	hdr := make([]byte, 4096)
	if err := as.Read(mod.Base, hdr); err != nil {
		return nil, fmt.Errorf("rootkit: reading %s headers: %w", moduleName, err)
	}
	le := binary.LittleEndian
	if le.Uint16(hdr[0:]) != pe.DOSMagic {
		return nil, fmt.Errorf("rootkit: %s at %#x has no DOS magic", moduleName, mod.Base)
	}
	lfanew := le.Uint32(hdr[0x3C:])
	if lfanew+4+pe.FileHeaderSize >= 4096 {
		return nil, fmt.Errorf("rootkit: %s headers exceed first page", moduleName)
	}
	numSections := le.Uint16(hdr[lfanew+4+2:])
	optSize := uint32(le.Uint16(hdr[lfanew+4+16:])) // SizeOfOptionalHeader, per the PE magic
	optOff := lfanew + 4 + pe.FileHeaderSize
	if optOff+optSize+uint32(numSections)*pe.SectionHeaderSize > 4096 {
		return nil, fmt.Errorf("rootkit: %s headers exceed first page", moduleName)
	}
	entryRVA := le.Uint32(hdr[optOff+16:])
	secOff := optOff + optSize

	var textRVA, textSize uint32
	for i := uint32(0); i < uint32(numSections); i++ {
		sh := hdr[secOff+i*pe.SectionHeaderSize:]
		if string(sh[:5]) == ".text" {
			textSize = le.Uint32(sh[8:])
			textRVA = le.Uint32(sh[12:])
			break
		}
	}
	if textRVA == 0 {
		return nil, fmt.Errorf("%w: no .text section in %s", ErrNoTarget, moduleName)
	}

	code := make([]byte, textSize)
	if err := as.Read(mod.Base+uint64(textRVA), code); err != nil {
		return nil, fmt.Errorf("rootkit: reading %s .text: %w", moduleName, err)
	}
	rep, err := installHook(code, entryRVA-textRVA)
	if err != nil {
		return nil, err
	}
	if err := as.Write(mod.Base+uint64(textRVA), code); err != nil {
		return nil, fmt.Errorf("rootkit: writing %s .text: %w", moduleName, err)
	}
	rep.VictimRVA += textRVA
	rep.CaveRVA += textRVA
	return rep, nil
}

// PatchLiveBytes overwrites len(data) bytes at the given RVA of a loaded
// module — the primitive behind single-opcode live patches and test
// scenarios that corrupt arbitrary components (headers included).
func PatchLiveBytes(g *guest.Guest, moduleName string, rva uint32, data []byte) error {
	mod := g.Module(moduleName)
	if mod == nil {
		return fmt.Errorf("rootkit: %s not loaded in %s", moduleName, g.Name())
	}
	if uint64(rva)+uint64(len(data)) > uint64(mod.SizeOfImage) {
		return fmt.Errorf("rootkit: patch [%#x,%#x) outside %s image", rva, int(rva)+len(data), moduleName)
	}
	return g.AddressSpace().Write(mod.Base+uint64(rva), data)
}

// InfectDiskAndReload applies a disk-image mutation and cycles the module
// through an unload/reload, modeling the paper's workflow of patching the
// file (OllyDbg, CFF Explorer) and rebooting — or loading the modified
// driver with the OSR Driver Loader. After reload the infected code is
// what sits in memory.
func InfectDiskAndReload(g *guest.Guest, moduleName string, mutate func([]byte) ([]byte, error)) error {
	img := g.DiskImage(moduleName)
	if img == nil {
		return fmt.Errorf("rootkit: no file %s on %s's disk", moduleName, g.Name())
	}
	infected, err := mutate(img)
	if err != nil {
		return err
	}
	if err := g.ReplaceDiskImage(moduleName, infected); err != nil {
		return err
	}
	if err := g.UnloadModule(moduleName); err != nil {
		return err
	}
	if _, err := g.LoadModule(moduleName); err != nil {
		return fmt.Errorf("rootkit: reloading %s: %w", moduleName, err)
	}
	return nil
}
