package core

import (
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
