package pe

import (
	"testing"
)

// FuzzParse hardens the PE parser against arbitrary bytes: introspection
// reads memory from potentially compromised guests, so Parse must never
// panic, only return errors. Run with `go test -fuzz=FuzzParse ./internal/pe`;
// the seed corpus alone runs on every `go test`.
func FuzzParse(f *testing.F) {
	img, err := (&Image{}).buildSeed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add([]byte{})
	f.Add([]byte("MZ"))
	f.Add(make([]byte, DOSHeaderSize))
	// A valid header prefix with garbage after.
	trunc := append([]byte(nil), img[:200]...)
	f.Add(trunc)
	// A PE32+ image and a prefix that cuts its optional header short.
	img64, err := buildSeed64()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img64)
	f.Add(append([]byte(nil), img64[:0x120]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return
		}
		// Anything that parses must re-serialize and re-parse, keeping its
		// magic and address width.
		raw, err := parsed.Bytes()
		if err != nil {
			t.Fatalf("parsed image fails to serialize: %v", err)
		}
		back, err := Parse(raw)
		if err != nil {
			t.Fatalf("round-tripped image fails to parse: %v", err)
		}
		if back.Optional.Magic != parsed.Optional.Magic || back.AddrWidth() != parsed.AddrWidth() {
			t.Fatalf("round trip turned magic %#x (width %d) into %#x (width %d)",
				parsed.Optional.Magic, parsed.AddrWidth(), back.Optional.Magic, back.AddrWidth())
		}
	})
}

// buildSeed64 creates a valid PE32+ image with DIR64 relocations.
func buildSeed64() ([]byte, error) {
	b := NewBuilder64(0x180010000)
	code := make([]byte, 0x220)
	code[0] = 0xC3
	b.AddSection(".text", code, ScnCntCode|ScnMemExecute|ScnMemRead)
	b.SetRelocSites([]uint32{0x1008})
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return img.Bytes()
}

// buildSeed creates a valid image for the fuzz corpus.
func (*Image) buildSeed() ([]byte, error) {
	b := NewBuilder(0x10000)
	code := make([]byte, 0x220)
	code[0] = 0xC3
	b.AddSection(".text", code, ScnCntCode|ScnMemExecute|ScnMemRead)
	b.SetImports([]Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}})
	b.SetRelocSites([]uint32{0x1004})
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return img.Bytes()
}

// FuzzParseRelocTable hardens the relocation-table parser: malicious
// modules control their own .reloc contents.
func FuzzParseRelocTable(f *testing.F) {
	f.Add(BuildRelocTable([]uint32{0x1004, 0x2008, 0x2010}))
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		sites, err := ParseRelocTable(data)
		if err != nil {
			return
		}
		for i := 1; i < len(sites); i++ {
			if sites[i] < sites[i-1] {
				t.Fatal("sites not sorted")
			}
		}
	})
}

// FuzzParseImports exercises the import-directory walker with a corrupted
// directory grafted into an otherwise valid image.
func FuzzParseImports(f *testing.F) {
	seed, err := (&Image{}).buildSeed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, flip uint32) {
		img, err := Parse(data)
		if err != nil {
			return
		}
		// Corrupt one byte of the section holding the import directory.
		if dir := img.Optional.DataDirectory[DirImport]; dir.VirtualAddress != 0 {
			if sec := img.SectionAt(dir.VirtualAddress); sec != nil && len(sec.Data) > 0 {
				sec.Data[int(flip)%len(sec.Data)] ^= 0xFF
			}
		}
		// Must not panic; errors are fine.
		_, _ = img.ParseImports()
		_, _ = img.ParseExports()
		_, _ = img.RelocSites()
	})
}
