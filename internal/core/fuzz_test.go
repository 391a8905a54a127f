package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzParseModule hardens Module-Parser against arbitrary guest memory: a
// compromised guest controls every byte the searcher copies out, so the
// parser must never panic. Seeds cover both optional-header layouts: a
// loaded PE32 module and a loaded PE32+ (x64) one.
func FuzzParseModule(f *testing.F) {
	_, targets := testPool(f, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	_, buf, _, err := s.FetchModule("alpha.sys")
	if err != nil {
		f.Fatal(err)
	}
	_, targets64 := testPool64(f, 1)
	info64, buf64, _, err := NewSearcher(targets64[0].Handle, CopyPageWise).FetchModule("hal.dll")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[:4096], uint64(0xF8CC2000))
	f.Add(buf64[:4096], info64.DllBase)
	f.Add([]byte{}, uint64(0))
	f.Add([]byte("MZ"), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, base uint64) {
		m, _, err := ParseModule("fuzz", "x.sys", base, data)
		if err != nil {
			return
		}
		// A successfully parsed module must have internally consistent
		// components, and an optional header matching its address width.
		for _, c := range m.Components {
			if len(c.Data) == 0 && c.Kind != KindSectionData {
				t.Fatalf("empty header component %s", c.Name)
			}
		}
		opt := m.Component("IMAGE_OPTIONAL_HEADER")
		if m.AddrWidth == 8 {
			opt = m.Component("IMAGE_OPTIONAL_HEADER64")
		}
		if opt == nil || (m.AddrWidth != 4 && m.AddrWidth != 8) {
			t.Fatalf("address width %d without its optional header", m.AddrWidth)
		}
	})
}

// FuzzNormalizePair checks the Algorithm 2 implementation never panics and
// never produces out-of-bounds rewrites for arbitrary input pairs, at both
// address widths: wide selects 8-byte fields (uint64 bases), otherwise the
// bases are truncated to 32 bits and fields are 4 bytes.
func FuzzNormalizePair(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 9, 9, 5, 6, 7, 8}, uint64(0xF8CC2000), uint64(0xF8D0C000), false)
	f.Add([]byte{}, []byte{}, uint64(0), uint64(0), false)
	f.Add([]byte{1}, []byte{2}, uint64(1), uint64(2), false)
	// The x64 seeds of TestNormalizePair64Identity and
	// TestNormalizePair64PreservesTamper.
	d1, d2 := normalizePair64Identity()
	f.Add(d1, d2, uint64(x64Base1), uint64(x64Base2), true)
	tampered := make([]byte, 128)
	tampered[77] = 0xCC
	f.Add(tampered, make([]byte, 128), uint64(x64Base1), uint64(x64Base2), true)
	f.Fuzz(func(t *testing.T, d1, d2 []byte, b1, b2 uint64, wide bool) {
		var n1, n2 []byte
		var sites []uint32
		width := 4
		if wide {
			width = 8
			n1, n2, sites = NormalizePair(d1, d2, b1, b2)
		} else {
			n1, n2, sites = NormalizePair(d1, d2, uint32(b1), uint32(b2))
		}
		if len(n1) != len(d1) || len(n2) != len(d2) {
			t.Fatal("lengths changed")
		}
		limit := len(n1)
		if len(n2) < limit {
			limit = len(n2)
		}
		for _, s := range sites {
			if int(s)+width > limit {
				t.Fatalf("site %#x beyond comparable range %#x", s, limit)
			}
		}
	})
}

// replayCase is one FuzzDigestReplay input: the reference, the copy that
// seeds the memo, and the candidate checked against its site list, with
// their three bases and the widths the seed and the candidate are paired
// with the reference at; accept is what the memo must answer.
type replayCase struct {
	name               string
	ref, seed, cand    []byte
	bRef, bSeed, bCand uint64
	seedWide, candWide bool
	accept             bool
}

// relocated lays an address field for each rva at the matching site of a
// fixed filler of n bytes, relocated to base — a section as a loader leaves
// it. A site may run past n, leaving only the field's low bytes.
func relocated(n int, sites []int, rvas []uint64, base uint64, width int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*37 + 11)
	}
	for k, s := range sites {
		var field [8]byte
		binary.LittleEndian.PutUint64(field[:], rvas[k]+base)
		copy(out[s:], field[:width])
	}
	return out
}

// replayCases are FuzzDigestReplay's seeds, one per edge the replay's
// conditions exist for.
func replayCases() []replayCase {
	sites := []int{4, 12, 40}
	rvas := []uint64{0x1000, 0x2234, 0x3FFC}
	at := func(base uint64) []byte { return relocated(64, sites, rvas, base, 4) }
	const r, s, c = 0xF8100000, 0xF8200000, 0xF8300000
	equalWindow := at(c)
	copy(equalWindow[12:16], at(r)[12:16])
	tampered := at(c)
	tampered[30] ^= 0x40
	adjacent := func(base uint64) []byte {
		return relocated(32, []int{8, 12, 16}, []uint64{0x1000, 0x1004, 0x1008}, base, 4)
	}
	// A field cut after its low two bytes: page-aligned bases leave those
	// bytes equal, so the tail is no site and every copy agrees there.
	tail := func(base uint64) []byte { return relocated(64, []int{4, 62}, []uint64{0x1000, 0x2000}, base, 4) }
	// Bytes 4-5 hold a base's high half: once the field at 0 is rewritten
	// to an RVA, the window at 2 decodes to RVA 0 too, so the scan rewrites
	// two overlapping windows.
	overlapping := func(base uint64) []byte {
		out := relocated(16, []int{0}, []uint64{0x1000}, base, 4)
		out[4], out[5] = byte(base>>16), byte(base>>24)
		return out
	}
	carry := func(base uint64) []byte { return relocated(64, sites, []uint64{0x0001FFFC, 0x00FFFFF0, 0x10}, base, 4) }
	wide := func(base uint64) []byte { return relocated(64, []int{8, 24}, []uint64{0x1000, 0x7FF0}, base, 8) }
	const w1, w2, w3 = 0xFFFFF88000100000, 0xFFFFF88000200000, 0xFFFFF88000300000
	// Bases that share their high half: a width-4 scan of 8-byte fields
	// rewrites only the low halves, a width-8 scan the whole field.
	return []replayCase{
		{"clean", at(r), at(s), at(c), r, s, c, false, false, true},
		{"equal-bases", at(r), at(s), at(r), r, s, r, false, false, false},
		{"above-bit-32", at(r), at(s), at(r + 1<<32), r, s, r + 1<<32, false, false, false},
		{"above-bit-32-wide", wide(w1), wide(w2), wide(w1 + 1<<32), w1, w2, w1 + 1<<32, true, true, true},
		{"carry-into-offset", carry(0xF8FF0000), carry(s), carry(0xF9000000), 0xF8FF0000, s, 0xF9000000, false, false, true},
		{"adjacent-sites", adjacent(r), adjacent(s), adjacent(c), r, s, c, false, false, true},
		{"overlapping-sites", overlapping(r), overlapping(s), overlapping(c), r, s, c, false, false, false},
		{"equal-window", at(r), at(s), equalWindow, r, s, c, false, false, false},
		{"truncated-tail", tail(r), tail(s), tail(c), r, s, c, false, false, true},
		{"unequal-lengths", at(r), at(s), append(at(c), 0), r, s, c, false, false, false},
		{"candidate-cut-inside-a-site", at(r), at(s), at(c)[:42], r, s, c, false, false, false},
		{"tampered-between-sites", at(r), at(s), tampered, r, s, c, false, false, false},
		{"wide", wide(w1), wide(w2), wide(w3), w1, w2, w3, true, true, true},
		{"narrow-seed-wide-candidate", wide(w1), wide(w2), wide(w3), w1, w2, w3, false, true, false},
		{"wide-seed-narrow-candidate", wide(w1), wide(w2), wide(w3), w1, w2, w3, true, false, false},
	}
}

// checkReplay seeds a memo entry from (seed, ref) at seedWidth the way the
// seeding digest task does, asks it about cand at candWidth, and — when it
// accepts — checks the claim against the full scan: both sides of
// normalizePairInPlace(cand, ref) equal the memo bytes, through the same
// site list. It reports whether a memo was seeded and whether replay
// accepted.
func checkReplay(t *testing.T, ref, seed, cand []byte, bRef, bSeed, bCand uint64, seedWidth, candWidth int) (seeded, accepted bool) {
	t.Helper()
	sa, memo := append([]byte(nil), seed...), append([]byte(nil), ref...)
	e := memoEntry{buf: &memo, width: seedWidth}
	e.sites = normalizePairInPlace(sa, memo, bSeed, bRef, seedWidth)
	if !bytes.Equal(sa, memo) {
		return false, false
	}
	if !e.replays(cand, ref, bCand, bRef, candWidth) {
		return true, false
	}
	ca, cb := append([]byte(nil), cand...), append([]byte(nil), ref...)
	got := normalizePairInPlace(ca, cb, bCand, bRef, candWidth)
	if !bytes.Equal(ca, cb) || !bytes.Equal(cb, memo) {
		t.Fatalf("replay accepted, but the scan normalizes to\n vm  %x\n ref %x\nnot the memo\n     %x", ca, cb, memo)
	}
	if fmt.Sprint(got) != fmt.Sprint(e.sites) {
		t.Fatalf("replay accepted sites %v, the scan rewrote %v", e.sites, got)
	}
	return true, true
}

// widthOf is the address width a fuzz input's flag selects.
func widthOf(wide bool) int {
	if wide {
		return 8
	}
	return 4
}

// TestDigestReplayCases pins what the memo answers on each seed of
// FuzzDigestReplay, so the seeds keep exercising both outcomes.
func TestDigestReplayCases(t *testing.T) {
	for _, c := range replayCases() {
		seeded, accepted := checkReplay(t, c.ref, c.seed, c.cand, c.bRef, c.bSeed, c.bCand, widthOf(c.seedWide), widthOf(c.candWide))
		if !seeded || accepted != c.accept {
			t.Errorf("%s: seeded=%v accepted=%v, want seeded and accepted=%v", c.name, seeded, accepted, c.accept)
		}
	}
}

// FuzzDigestReplay pits the digest stage's site-list replay against the
// diff scan it stands in for: whenever a memo seeded from another copy
// accepts a candidate, the full scan of candidate and reference must yield
// two byte-equal sides equal to the memo's bytes. The seed and the
// candidate may pair with the reference at different widths, as copies of
// a mixed PE32/PE32+ pool do.
func FuzzDigestReplay(f *testing.F) {
	for _, c := range replayCases() {
		f.Add(c.ref, c.seed, c.cand, c.bRef, c.bSeed, c.bCand, c.seedWide, c.candWide)
	}
	f.Fuzz(func(t *testing.T, ref, seed, cand []byte, bRef, bSeed, bCand uint64, seedWide, candWide bool) {
		checkReplay(t, ref, seed, cand, bRef, bSeed, bCand, widthOf(seedWide), widthOf(candWide))
	})
}
