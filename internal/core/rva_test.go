package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"modchecker/internal/pe"
)

// buildPair lays one synthetic section out at two bases: identical RVAs,
// relocated absolute addresses, optional tampering applied to copy 1.
func buildPair(seed int64, size int, nAddrs int, base1, base2 uint32) (d1, d2 []byte, sites []uint32) {
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, size)
	rng.Read(content)
	// Plant non-overlapping 4-byte address fields.
	used := map[int]bool{}
	for len(sites) < nAddrs {
		off := rng.Intn(size - 4)
		ok := true
		for d := -3; d <= 3; d++ {
			if used[off+d] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for d := 0; d < 4; d++ {
			used[off+d] = true
		}
		sites = append(sites, uint32(off))
	}
	d1 = append([]byte(nil), content...)
	d2 = append([]byte(nil), content...)
	le := binary.LittleEndian
	for _, off := range sites {
		rva := uint32(rng.Intn(1 << 20))
		le.PutUint32(d1[off:], base1+rva)
		le.PutUint32(d2[off:], base2+rva)
	}
	return d1, d2, sites
}

func TestNormalizePairRecoversIdentity(t *testing.T) {
	const base1, base2 uint32 = 0xF8CC2000, 0xF8D0C000 // the paper's Figure 4 bases
	d1, d2, sites := buildPair(1, 4096, 40, base1, base2)
	n1, n2, found := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Fatal("normalized copies differ for untampered section")
	}
	if len(found) != len(sites) {
		t.Errorf("recovered %d sites, planted %d", len(found), len(sites))
	}
	// Every rewritten field must now hold the RVA.
	le := binary.LittleEndian
	for _, off := range found {
		v := le.Uint32(n1[off:])
		if v >= 0x00100000 {
			t.Errorf("site %#x holds %#x, not an RVA", off, v)
		}
	}
}

func TestNormalizePairDoesNotMutateInputs(t *testing.T) {
	d1, d2, _ := buildPair(2, 1024, 10, 0xF8CC2000, 0xF8D0C000)
	c1 := append([]byte(nil), d1...)
	c2 := append([]byte(nil), d2...)
	NormalizePair(d1, d2, uint32(0xF8CC2000), 0xF8D0C000)
	if !bytes.Equal(d1, c1) || !bytes.Equal(d2, c2) {
		t.Error("inputs mutated")
	}
}

func TestNormalizePairIdenticalBases(t *testing.T) {
	d1, d2, _ := buildPair(3, 1024, 10, 0xF8CC2000, 0xF8CC2000)
	n1, n2, sites := NormalizePair(d1, d2, uint32(0xF8CC2000), 0xF8CC2000)
	if sites != nil {
		t.Errorf("sites rewritten with identical bases: %v", sites)
	}
	if !bytes.Equal(n1, d1) || !bytes.Equal(n2, d2) {
		t.Error("data changed with identical bases")
	}
}

func TestNormalizePairPreservesTampering(t *testing.T) {
	const base1, base2 uint32 = 0xF8CC2000, 0xF8D0C000
	d1, d2, _ := buildPair(4, 4096, 30, base1, base2)
	// Tamper a non-address byte in copy 1 (the E1 scenario).
	off := 100
	for {
		// Find a spot where the copies agree (not an address field).
		if d1[off] == d2[off] && d1[off+1] == d2[off+1] && d1[off+2] == d2[off+2] {
			break
		}
		off++
	}
	d1[off] ^= 0x5A
	n1, n2, _ := NormalizePair(d1, d2, base1, base2)
	if bytes.Equal(n1, n2) {
		t.Fatal("tampering normalized away — detection would fail")
	}
	diffs := 0
	for i := range n1 {
		if n1[i] != n2[i] {
			diffs++
		}
	}
	if diffs > 8 {
		t.Errorf("tampering of 1 byte produced %d residual diffs", diffs)
	}
}

// TestNormalizePairOffsetBases exercises the paper's offset logic: bases
// whose first differing byte is at each possible index.
func TestNormalizePairOffsetBases(t *testing.T) {
	cases := []struct {
		name         string
		base1, base2 uint32
	}{
		{"differ at byte0", 0xF8CC2001, 0xF8CC2002}, // unaligned; contrived
		{"differ at byte1", 0xF8CC2000, 0xF8CC9000},
		{"differ at byte2", 0xF8CC2000, 0xF8D02000},
		{"differ at byte3", 0xF8CC2000, 0xF9CC2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d1, d2, _ := buildPair(5, 2048, 20, c.base1, c.base2)
			n1, n2, _ := NormalizePair(d1, d2, c.base1, c.base2)
			if !bytes.Equal(n1, n2) {
				t.Error("normalization failed")
			}
		})
	}
}

func TestNormalizePairAddressAtSectionEdges(t *testing.T) {
	const base1, base2 uint32 = 0xF8CC2000, 0xF8D0C000
	le := binary.LittleEndian
	d1 := make([]byte, 64)
	d2 := make([]byte, 64)
	// Address at offset 0 and at the very end.
	le.PutUint32(d1[0:], base1+0x500)
	le.PutUint32(d2[0:], base2+0x500)
	le.PutUint32(d1[60:], base1+0x600)
	le.PutUint32(d2[60:], base2+0x600)
	n1, n2, sites := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Error("edge addresses not normalized")
	}
	if len(sites) != 2 || sites[0] != 0 || sites[1] != 60 {
		t.Errorf("sites = %v", sites)
	}
}

func TestNormalizePairDifferentLengths(t *testing.T) {
	const base1, base2 uint32 = 0xF8CC2000, 0xF8D0C000
	d1, d2, _ := buildPair(6, 1024, 10, base1, base2)
	short := d2[:512]
	// Must not panic; comparison proceeds over the common prefix.
	n1, n2, _ := NormalizePair(d1, short, base1, base2)
	if len(n1) != 1024 || len(n2) != 512 {
		t.Errorf("lengths changed: %d, %d", len(n1), len(n2))
	}
}

// TestAlgorithm2PaperLine22Quirk documents the paper's pseudocode defect:
// line 22 advances the scan index as j <- j - offset + 1 - 4, i.e.
// *backwards* past the address just processed, which would loop forever.
// The working advance is j <- (j - offset) + 4 (0-based), which this
// implementation uses. This test pins the corrected behavior: scanning
// terminates and consecutive addresses are each processed exactly once.
func TestAlgorithm2PaperLine22Quirk(t *testing.T) {
	const base1, base2 uint32 = 0xF8CC2000, 0xF8D0C000
	le := binary.LittleEndian
	// Two adjacent address fields, back to back: the buggy advance would
	// re-scan the first field's bytes.
	d1 := make([]byte, 16)
	d2 := make([]byte, 16)
	le.PutUint32(d1[0:], base1+0x100)
	le.PutUint32(d2[0:], base2+0x100)
	le.PutUint32(d1[4:], base1+0x200)
	le.PutUint32(d2[4:], base2+0x200)
	n1, n2, sites := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Error("adjacent addresses not normalized")
	}
	if len(sites) != 2 || sites[0] != 0 || sites[1] != 4 {
		t.Errorf("sites = %v, want [0 4]", sites)
	}
}

// TestAlgorithm2RebasedConstantFalseNegative states a known blind spot of
// Algorithm 2. A 4-byte constant v that is not an address, rewritten on one
// copy to v + (baseA − baseRef), first differs inside the same field as a
// real relocation would, and both sides decode to the same RVA v − baseRef.
// The diff scan therefore rewrites the tampering away and the copies
// normalize equal. This pins today's behaviour; closing it means checking
// diff-scan sites against the module's .reloc (NormalizeWithRelocs), where
// a rewritten site with no reloc entry is evidence rather than noise.
func TestAlgorithm2RebasedConstantFalseNegative(t *testing.T) {
	baseA, baseRef := uint32(0xF8100000), uint32(0xF8200000)
	const v = 0x12345
	le := binary.LittleEndian
	dA := make([]byte, 64)
	dRef := make([]byte, 64)
	le.PutUint32(dRef[16:], v)
	le.PutUint32(dA[16:], v+baseA-baseRef)
	if bytes.Equal(dA, dRef) {
		t.Fatal("tampered copy equals the reference before normalization")
	}
	nA, nRef, sites := NormalizePair(dA, dRef, baseA, baseRef)
	if !bytes.Equal(nA, nRef) {
		t.Error("rebased constant survived normalization: the blind spot is closed, update this test")
	}
	if len(sites) != 1 || sites[0] != 16 {
		t.Errorf("sites = %v, want [16]", sites)
	}
}

// TestNormalizePairQuick property-tests the full invariant over random
// sections and page-aligned bases: normalize(untampered pair) is equal;
// flipping any non-address byte keeps them unequal.
func TestNormalizePairQuick(t *testing.T) {
	f := func(seed int64, a, b uint16) bool {
		base1 := 0xF8000000 + uint32(a)*0x1000
		base2 := 0xF8000000 + uint32(b)*0x1000
		d1, d2, _ := buildPair(seed, 1024, 12, base1, base2)
		n1, n2, _ := NormalizePair(d1, d2, base1, base2)
		return bytes.Equal(n1, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNormalizeAgainstRealLoader cross-validates the diff scan against the
// actual guest loader: both VMs' .text sections, fetched via introspection,
// normalize to equality.
func TestNormalizeAgainstRealLoader(t *testing.T) {
	_, targets := testPool(t, 2)
	var parsed [2]*ParsedModule
	var bases [2]uint32
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = m
		bases[i] = info.Base
	}
	t1 := parsed[0].Component(".text")
	t2 := parsed[1].Component(".text")
	if bytes.Equal(t1.Data, t2.Data) {
		t.Fatal("raw .text identical across bases — relocation not happening?")
	}
	n1, n2, sites := NormalizePair(t1.Data, t2.Data, bases[0], bases[1])
	if !bytes.Equal(n1, n2) {
		t.Fatal("real loader output did not normalize to equality")
	}
	if len(sites) == 0 {
		t.Error("no sites recovered")
	}
}

// TestDiffScanMatchesRelocTable cross-validates the two normalizers: the
// sites the diff scan recovers must be exactly the .reloc-table sites that
// fall within .text (for two VMs with different bases).
func TestDiffScanMatchesRelocTable(t *testing.T) {
	guests, targets := testPool(t, 2)
	var parsed [2]*ParsedModule
	var bases [2]uint32
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = m
		bases[i] = info.Base
	}
	t1 := parsed[0].Component(".text")
	t2 := parsed[1].Component(".text")
	_, _, scanSites := NormalizePair(t1.Data, t2.Data, bases[0], bases[1])

	img, err := pe.Parse(guests[0].DiskImage("alpha.sys"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for _, rva := range all {
		if rva >= t1.VirtualAddress && rva+4 <= t1.VirtualAddress+uint32(len(t1.Data)) {
			want = append(want, rva-t1.VirtualAddress)
		}
	}
	if len(scanSites) != len(want) {
		t.Fatalf("diff scan found %d sites, reloc table has %d in .text", len(scanSites), len(want))
	}
	for i := range want {
		if scanSites[i] != want[i] {
			t.Fatalf("site %d: scan %#x, table %#x", i, scanSites[i], want[i])
		}
	}
}

func TestNormalizeWithRelocsEquivalent(t *testing.T) {
	_, targets := testPool(t, 2)
	var comps [2][]byte
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := NormalizeWithRelocs(m.Raw)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = ApplyRelocNormalization(m.Component(".text"), sites, info.DllBase, m.AddrWidth)
	}
	if !bytes.Equal(comps[0], comps[1]) {
		t.Error("reloc-table normalization did not converge across VMs")
	}
}

func TestNormalizeWithRelocsNoDirectory(t *testing.T) {
	// An image with no .reloc yields no sites and no error.
	b := pe.NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x200), pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := img.Layout()
	if err != nil {
		t.Fatal(err)
	}
	sites, err := NormalizeWithRelocs(mem)
	if err != nil || sites != nil {
		t.Errorf("got %v, %v", sites, err)
	}
}

// x64Base1 and x64Base2 are two x64 driver-area load bases; their first
// differing byte lies in the low half.
const x64Base1, x64Base2 uint64 = 0xFFFFF88001234000, 0xFFFFF88004562000

// normalizePair64Identity builds a 256-byte section laid out at both x64
// bases, with 8-byte absolute addresses of RVA 0x5000 at offsets 8, 64 and
// 248.
func normalizePair64Identity() (d1, d2 []byte) {
	le := binary.LittleEndian
	d1 = make([]byte, 256)
	d2 = make([]byte, 256)
	for i := range d1 {
		d1[i] = byte(i)
		d2[i] = byte(i)
	}
	for _, off := range []int{8, 64, 248} {
		le.PutUint64(d1[off:], x64Base1+0x5000)
		le.PutUint64(d2[off:], x64Base2+0x5000)
	}
	return d1, d2
}

// TestNormalizePair64Identity is Algorithm 2 at the 8-byte width: every
// DIR64 field is found and rewritten whole to its RVA.
func TestNormalizePair64Identity(t *testing.T) {
	d1, d2 := normalizePair64Identity()
	n1, n2, sites := NormalizePair(d1, d2, x64Base1, x64Base2)
	if !bytes.Equal(n1, n2) {
		t.Fatal("not normalized")
	}
	if len(sites) != 3 {
		t.Errorf("sites = %v", sites)
	}
	for _, s := range sites {
		if got := binary.LittleEndian.Uint64(n1[s:]); got != 0x5000 {
			t.Errorf("site %#x holds %#x, want RVA 0x5000", s, got)
		}
	}
}

// TestNormalizePair64PreservesTamper: a lone differing byte that does not
// decode to a common RVA survives 8-byte normalization.
func TestNormalizePair64PreservesTamper(t *testing.T) {
	d1 := make([]byte, 128)
	d2 := make([]byte, 128)
	d1[77] = 0xCC // tampered byte
	n1, n2, _ := NormalizePair(d1, d2, x64Base1, x64Base2)
	if bytes.Equal(n1, n2) {
		t.Error("tamper normalized away")
	}
}

// TestNormalizePair64HighHalfBases: x64 bases that differ only above bit 32
// are still told apart — the 8-byte width scans all eight base bytes, where
// a 4-byte scan would see identical bases and rewrite nothing.
func TestNormalizePair64HighHalfBases(t *testing.T) {
	const b1, b2 uint64 = 0xFFFFF88001234000, 0xFFFFF8A001234000
	le := binary.LittleEndian
	d1 := make([]byte, 64)
	d2 := make([]byte, 64)
	le.PutUint64(d1[16:], b1+0x1230)
	le.PutUint64(d2[16:], b2+0x1230)
	n1, n2, sites := NormalizePair(d1, d2, b1, b2)
	if !bytes.Equal(n1, n2) || len(sites) != 1 || sites[0] != 16 {
		t.Fatalf("sites %v, equal %v", sites, bytes.Equal(n1, n2))
	}
	if got := le.Uint64(n1[16:]); got != 0x1230 {
		t.Errorf("rewritten to %#x", got)
	}
}
