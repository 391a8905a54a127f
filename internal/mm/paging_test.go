package mm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newAS(t testing.TB) (*PhysMemory, *AddressSpace) {
	t.Helper()
	m := NewPhysMemory(16<<20, 1)
	as, err := NewAddressSpace(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, as
}

func TestMapTranslate(t *testing.T) {
	m, as := newAS(t)
	pfn, _ := m.AllocFrame()
	const va = 0x80001000
	if err := as.Map(va, pfn, PteWritable); err != nil {
		t.Fatal(err)
	}
	pa, err := as.Translate(va + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pfn<<PageShift|0x123 {
		t.Errorf("pa = %#x, want %#x", pa, pfn<<PageShift|0x123)
	}
}

func TestMapUnaligned(t *testing.T) {
	_, as := newAS(t)
	if err := as.Map(0x80001004, 3, 0); err == nil {
		t.Error("unaligned map accepted")
	}
}

func TestTranslateUnmapped(t *testing.T) {
	_, as := newAS(t)
	if _, err := as.Translate(0xDEAD0000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("err = %v, want ErrUnmapped", err)
	}
}

func TestTranslateUnmappedPTE(t *testing.T) {
	m, as := newAS(t)
	pfn, _ := m.AllocFrame()
	// Map one page; its neighbor shares the page table but has no PTE.
	if err := as.Map(0x80001000, pfn, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(0x80002000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("err = %v, want ErrUnmapped (PTE absent)", err)
	}
}

func TestUnmap(t *testing.T) {
	m, as := newAS(t)
	pfn, _ := m.AllocFrame()
	as.Map(0x80001000, pfn, 0)
	if err := as.Unmap(0x80001000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(0x80001000); !errors.Is(err, ErrUnmapped) {
		t.Error("translation survives unmap")
	}
}

func TestUnmapUnmapped(t *testing.T) {
	_, as := newAS(t)
	if err := as.Unmap(0xDEAD0000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("err = %v", err)
	}
}

func TestAllocAndMap(t *testing.T) {
	_, as := newAS(t)
	pfns, err := as.AllocAndMap(0x80010000, 3*PageSize+100, PteWritable)
	if err != nil {
		t.Fatal(err)
	}
	if len(pfns) != 4 {
		t.Fatalf("%d frames for 3 pages + 100 bytes, want 4", len(pfns))
	}
	for i := uint32(0); i < 4; i++ {
		if _, err := as.Translate(uint64(0x80010000 + i*PageSize)); err != nil {
			t.Errorf("page %d unmapped: %v", i, err)
		}
	}
}

func TestAllocAndMapScatteredPhysically(t *testing.T) {
	_, as := newAS(t)
	pfns, err := as.AllocAndMap(0x80010000, 16*PageSize, PteWritable)
	if err != nil {
		t.Fatal(err)
	}
	adjacent := 0
	for i := 1; i < len(pfns); i++ {
		if pfns[i] == pfns[i-1]+1 {
			adjacent++
		}
	}
	if adjacent > len(pfns)/2 {
		t.Errorf("backing frames mostly contiguous (%d/%d) — expected scatter", adjacent, len(pfns))
	}
}

func TestUnmapAndFree(t *testing.T) {
	m, as := newAS(t)
	before := m.FramesInUse()
	if _, err := as.AllocAndMap(0x80010000, 4*PageSize, PteWritable); err != nil {
		t.Fatal(err)
	}
	if err := as.UnmapAndFree(0x80010000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	// The page-table frame remains; the 4 data frames are gone.
	if got := m.FramesInUse(); got != before+1 {
		t.Errorf("FramesInUse = %d, want %d (+1 page table)", got, before+1)
	}
	if _, err := as.Translate(0x80010000); !errors.Is(err, ErrUnmapped) {
		t.Error("mapping survives UnmapAndFree")
	}
}

func TestReadWriteVirtualCrossPage(t *testing.T) {
	_, as := newAS(t)
	const va = 0x80010000
	if _, err := as.AllocAndMap(va, 4*PageSize, PteWritable); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*PageSize)
	rand.New(rand.NewSource(2)).Read(data)
	if err := as.Write(va+500, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(va+500, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page virtual IO mismatch")
	}
}

func TestWriteVirtualUnmappedFails(t *testing.T) {
	_, as := newAS(t)
	if err := as.Write(0x90000000, []byte{1}); !errors.Is(err, ErrUnmapped) {
		t.Errorf("err = %v", err)
	}
}

func TestExternalWalkMatchesInternal(t *testing.T) {
	m, as := newAS(t)
	if _, err := as.AllocAndMap(0x80010000, 8*PageSize, PteWritable); err != nil {
		t.Fatal(err)
	}
	for off := uint32(0); off < 8*PageSize; off += 1021 {
		va := 0x80010000 + off
		want, err := as.Translate(uint64(va))
		if err != nil {
			t.Fatal(err)
		}
		got, err := WalkPageTables(m, as.CR3(), va)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("external walk %#x != internal %#x at va %#x", got, want, va)
		}
	}
}

func TestReadVirtualExternal(t *testing.T) {
	m, as := newAS(t)
	const va = 0x80010000
	as.AllocAndMap(va, 2*PageSize, PteWritable)
	data := []byte("introspected across the VM boundary")
	as.Write(va+PageSize-10, data)

	got := make([]byte, len(data))
	if err := ReadVirtual(m, as.CR3(), va+PageSize-10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestAttachAddressSpace(t *testing.T) {
	m, as := newAS(t)
	const va = 0x80010000
	as.AllocAndMap(va, PageSize, PteWritable)
	as.Write(va, []byte{0x42})

	attached := as.Attach(m)
	got := make([]byte, 1)
	if err := attached.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Errorf("attached space reads %#02x", got[0])
	}
}

func TestPteFlags(t *testing.T) {
	m, as := newAS(t)
	pfn, _ := m.AllocFrame()
	if err := as.Map(0x80001000, pfn, PteWritable|PteUser); err != nil {
		t.Fatal(err)
	}
	// Inspect the raw PTE through physical memory.
	pde, err := readEntry(m, as.CR3()+(0x80001000>>22)*4)
	if err != nil {
		t.Fatal(err)
	}
	pte, err := readEntry(m, (pde&^(PageSize-1))+((0x80001000>>PageShift)&1023)*4)
	if err != nil {
		t.Fatal(err)
	}
	if pte&PtePresent == 0 || pte&PteWritable == 0 || pte&PteUser == 0 {
		t.Errorf("PTE = %#x missing flags", pte)
	}
	if pte>>PageShift != pfn {
		t.Errorf("PTE frame %#x, want %#x", pte>>PageShift, pfn)
	}
}

// TestPagingQuick property-tests map/translate over random VAs.
func TestPagingQuick(t *testing.T) {
	m, as := newAS(t)
	f := func(page uint16, off uint16) bool {
		va := 0x40000000 + uint32(page)*PageSize
		pfn, err := m.AllocFrame()
		if err != nil {
			// Pool exhaustion is fine for the property.
			return true
		}
		if err := as.Map(uint64(va), pfn, PteWritable); err != nil {
			return false
		}
		pa, err := as.Translate(uint64(va | uint32(off)&(PageSize-1)))
		if err != nil {
			return false
		}
		return pa == pfn<<PageShift|uint32(off)&(PageSize-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- four-level (x86-64) paging ---

func newAS64(t testing.TB, seed int64) (*PhysMemory, *AddressSpace) {
	t.Helper()
	m := NewPhysMemory(16<<20, seed)
	as, err := NewAddressSpace64(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, as
}

func TestPaging64MapTranslate(t *testing.T) {
	phys, as := newAS64(t, 1)
	pfn, _ := phys.AllocFrame()
	const va = 0xFFFFF88001234000
	if err := as.Map(va, pfn, PteWritable); err != nil {
		t.Fatal(err)
	}
	pa, err := WalkPageTables64(phys, as.CR3(), va+0x123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pfn<<PageShift|0x123 {
		t.Errorf("pa = %#x", pa)
	}
}

func TestPaging64RejectsNonCanonical(t *testing.T) {
	phys, as := newAS64(t, 1)
	if err := as.Map(0x0000800000000000, 3, PteWritable); err == nil {
		t.Error("non-canonical address mapped")
	}
	if _, err := WalkPageTables64(phys, as.CR3(), 0x0000900000000000); err == nil {
		t.Error("non-canonical address translated")
	}
}

func TestPaging64UnmappedLevels(t *testing.T) {
	phys, as := newAS64(t, 1)
	translate := func(va uint64) error {
		_, err := WalkPageTables64(phys, as.CR3(), va)
		return err
	}
	// Nothing mapped: fails at PML4 level.
	if translate(0xFFFFF88001234000) == nil {
		t.Error("empty space translated")
	}
	pfn, _ := phys.AllocFrame()
	as.Map(0xFFFFF88001234000, pfn, PteWritable)
	// Same PT, absent PTE.
	if translate(0xFFFFF88001235000) == nil {
		t.Error("absent PTE translated")
	}
	// Different PML4 entry entirely.
	if translate(0x0000700000000000) == nil {
		t.Error("far VA translated")
	}
}

func TestPaging64ReadWriteCrossPage(t *testing.T) {
	_, as := newAS64(t, 1)
	const va = 0xFFFFF88001230000
	if _, err := as.AllocAndMap(va, 3*PageSize, PteWritable); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Write(va+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(va+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page 64-bit IO mismatch")
	}
}

// TestPaging64ExternalWalkMatches: the external walk lands every byte the
// guest wrote through its own mappings.
func TestPaging64ExternalWalkMatches(t *testing.T) {
	phys, as := newAS64(t, 3)
	const va = 0xFFFFF8A000000000
	as.AllocAndMap(va, 8*PageSize, PteWritable)
	for off := uint64(0); off < 8*PageSize; off += 1021 {
		if err := as.Write(va+off, []byte{byte(off), byte(off >> 8)}); err != nil {
			t.Fatal(err)
		}
		pa, err := WalkPageTables64(phys, as.CR3(), va+off)
		if err != nil {
			t.Fatal(err)
		}
		var got [1]byte
		if err := phys.ReadPhys(pa, got[:]); err != nil || got[0] != byte(off) {
			t.Fatalf("external walk of +%#x reads %#x (%v)", off, got[0], err)
		}
	}
}

// TestPaging64UnmapAndAttach covers the four-level paths the guest loader
// shares with the 32-bit one: unmapping a module's pages frees its frames,
// and a space attached to a fork keeps its paging mode.
func TestPaging64UnmapAndAttach(t *testing.T) {
	phys, as := newAS64(t, 5)
	const va = 0xFFFFF88001000000
	if _, err := as.AllocAndMap(va, 2*PageSize, PteWritable); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(va, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	attached := as.Attach(phys.Fork())
	if attached.Levels() != 4 {
		t.Fatalf("attached space has %d levels", attached.Levels())
	}
	got := make([]byte, 1)
	if err := attached.Read(va, got); err != nil || got[0] != 0x42 {
		t.Fatalf("attached space reads %#02x (%v)", got[0], err)
	}
	before := phys.FramesInUse()
	if err := as.UnmapAndFree(va, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := phys.FramesInUse(); got != before-2 {
		t.Errorf("FramesInUse = %d, want %d", got, before-2)
	}
	if _, err := as.Translate(va); !errors.Is(err, ErrUnmapped) {
		t.Error("mapping survives UnmapAndFree")
	}
	if _, err := attached.Translate(va); err != nil {
		t.Errorf("fork lost its mapping: %v", err)
	}
}
