package pe

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuildRelocTableEmpty(t *testing.T) {
	if got := BuildRelocTable(nil); got != nil {
		t.Errorf("BuildRelocTable(nil) = %v, want nil", got)
	}
}

func TestRelocTableRoundTrip(t *testing.T) {
	sites := []uint32{0x1004, 0x1010, 0x1FFC, 0x2000, 0x2008, 0x5124}
	table := BuildRelocTable(sites)
	back, err := ParseRelocTable(table)
	if err != nil {
		t.Fatalf("ParseRelocTable: %v", err)
	}
	if !reflect.DeepEqual(back, sites) {
		t.Errorf("round trip: got %v, want %v", back, sites)
	}
}

func TestRelocTableUnsortedInput(t *testing.T) {
	sites := []uint32{0x5124, 0x1010, 0x2000, 0x1004}
	table := BuildRelocTable(sites)
	back, err := ParseRelocTable(table)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint32(nil), sites...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(back, want) {
		t.Errorf("got %v, want sorted %v", back, want)
	}
}

func TestRelocTableBlockStructure(t *testing.T) {
	// One site in page 0x1000, three in page 0x3000.
	sites := []uint32{0x1008, 0x3000, 0x3004, 0x3FF8}
	table := BuildRelocTable(sites)
	le := binary.LittleEndian

	// Block 1: page 0x1000, 1 entry padded to 2.
	if page := le.Uint32(table[0:]); page != 0x1000 {
		t.Errorf("block1 page = %#x", page)
	}
	size1 := le.Uint32(table[4:])
	if size1 != 8+2*2 {
		t.Errorf("block1 size = %d, want 12 (padded)", size1)
	}
	entry := le.Uint16(table[8:])
	if entry>>12 != RelBasedHighLow || entry&0xFFF != 8 {
		t.Errorf("block1 entry = %#04x", entry)
	}
	if pad := le.Uint16(table[10:]); pad != 0 {
		t.Errorf("padding entry = %#04x, want ABSOLUTE 0", pad)
	}

	// Block 2: page 0x3000, 3 entries padded to 4.
	b2 := table[size1:]
	if page := le.Uint32(b2[0:]); page != 0x3000 {
		t.Errorf("block2 page = %#x", page)
	}
	if size2 := le.Uint32(b2[4:]); size2 != 8+2*4 {
		t.Errorf("block2 size = %d, want 16", size2)
	}
}

func TestParseRelocTableRejectsBadBlock(t *testing.T) {
	table := BuildRelocTable([]uint32{0x1000})
	binary.LittleEndian.PutUint32(table[4:], 4) // size < 8
	if _, err := ParseRelocTable(table); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestParseRelocTableRejectsUnknownType(t *testing.T) {
	table := BuildRelocTable([]uint32{0x1000})
	// Overwrite the entry's type nibble with 9 (IMAGE_REL_BASED_IA64...).
	binary.LittleEndian.PutUint16(table[8:], 9<<12)
	if _, err := ParseRelocTable(table); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestParseRelocTableZeroTerminator(t *testing.T) {
	table := BuildRelocTable([]uint32{0x1004})
	table = append(table, make([]byte, 8)...) // zero page + zero size
	back, err := ParseRelocTable(table)
	if err != nil {
		t.Fatalf("zero terminator rejected: %v", err)
	}
	if len(back) != 1 || back[0] != 0x1004 {
		t.Errorf("got %v", back)
	}
}

func TestApplyRelocations(t *testing.T) {
	mem := make([]byte, 0x40)
	le := binary.LittleEndian
	le.PutUint32(mem[0x10:], 0x00011234)
	le.PutUint32(mem[0x20:], 0x00015678)
	if err := ApplyRelocations(mem, []uint32{0x10, 0x20}, 0x00100000, 4); err != nil {
		t.Fatal(err)
	}
	if got := le.Uint32(mem[0x10:]); got != 0x00111234 {
		t.Errorf("site 0x10 = %#x", got)
	}
	if got := le.Uint32(mem[0x20:]); got != 0x00115678 {
		t.Errorf("site 0x20 = %#x", got)
	}
}

func TestApplyRelocationsWraps(t *testing.T) {
	// Negative delta via two's complement: moving an image down.
	mem := make([]byte, 8)
	binary.LittleEndian.PutUint32(mem, 0x00020000)
	delta := uint32(0xFFFF0000) // -0x10000
	if err := ApplyRelocations(mem, []uint32{0}, uint64(delta), 4); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(mem); got != 0x00010000 {
		t.Errorf("got %#x, want 0x10000", got)
	}
}

func TestApplyRelocationsOutOfRange(t *testing.T) {
	mem := make([]byte, 8)
	if err := ApplyRelocations(mem, []uint32{6}, 1, 4); err == nil {
		t.Error("site crossing the end accepted")
	}
}

func TestApplyInverseRecoversRVAs(t *testing.T) {
	// Property: relocating by delta then subtracting the new base yields
	// the original RVAs — the invariant ModChecker's Algorithm 2 exploits.
	const preferred, actual = 0x10000, 0xF8CC2000
	mem := make([]byte, 0x100)
	le := binary.LittleEndian
	sites := []uint32{0x00, 0x24, 0x80}
	rvas := []uint32{0x2000, 0x2444, 0x3000}
	for i, s := range sites {
		le.PutUint32(mem[s:], preferred+rvas[i])
	}
	if err := ApplyRelocations(mem, sites, actual-preferred, 4); err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		if got := le.Uint32(mem[s:]) - actual; got != rvas[i] {
			t.Errorf("site %#x: recovered RVA %#x, want %#x", s, got, rvas[i])
		}
	}
}

func TestRelocSitesFromImage(t *testing.T) {
	img := buildTestImage(t)
	sites, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0] != 0x1004 {
		t.Errorf("RelocSites = %v, want [0x1004]", sites)
	}
}

func TestRelocSitesAbsentDirectory(t *testing.T) {
	b := NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x100), ScnCntCode|ScnMemExecute|ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sites, err := img.RelocSites()
	if err != nil || sites != nil {
		t.Errorf("RelocSites = %v, %v; want nil, nil", sites, err)
	}
}

func TestRelocSitesCorruptDirectory(t *testing.T) {
	img := buildTestImage(t)
	img.Optional.DataDirectory[DirBaseReloc].VirtualAddress = 0x9F000
	if _, err := img.RelocSites(); err == nil {
		t.Error("corrupt reloc directory accepted")
	}
	img.Optional.DataDirectory[DirBaseReloc] = DataDirectory{}
	img2 := buildTestImage(t)
	img2.Optional.DataDirectory[DirBaseReloc].Size = 1 << 30
	if _, err := img2.RelocSites(); err == nil {
		t.Error("oversized reloc directory accepted")
	}
}

// TestRelocRoundTripQuick property-tests build/parse over random site sets.
func TestRelocRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		set := map[uint32]bool{}
		for i := 0; i < int(n); i++ {
			set[uint32(rng.Intn(1<<20))&^3] = true
		}
		var sites []uint32
		for s := range set {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		back, err := ParseRelocTable(BuildRelocTable(sites))
		if err != nil {
			return false
		}
		if len(sites) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, sites)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestApplyRelocationsQuick property-tests that apply(delta) then
// apply(-delta) is the identity.
func TestApplyRelocationsQuick(t *testing.T) {
	f := func(seed int64, delta uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := make([]byte, 4096)
		rng.Read(mem)
		orig := append([]byte(nil), mem...)
		var sites []uint32
		for i := 0; i < 32; i++ {
			sites = append(sites, uint32(rng.Intn(len(mem)-4)))
		}
		// Overlapping sites would not round-trip; dedupe and space them.
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		var spaced []uint32
		last := -8
		for _, s := range sites {
			if int(s) >= last+4 {
				spaced = append(spaced, s)
				last = int(s)
			}
		}
		if err := ApplyRelocations(mem, spaced, uint64(delta), 4); err != nil {
			return false
		}
		if err := ApplyRelocations(mem, spaced, uint64(-delta), 4); err != nil {
			return false
		}
		return string(mem) == string(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
