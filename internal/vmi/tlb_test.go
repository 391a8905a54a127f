package vmi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modchecker/internal/mm"
)

// chargedOpen opens a handle that accumulates nominal charges into *total.
func chargedOpen(t testing.TB, total *time.Duration, extra ...Option) *Handle {
	t.Helper()
	g := testGuest(t)
	var mu sync.Mutex
	opts := append([]Option{WithCharge(func(d time.Duration) {
		mu.Lock()
		*total += d
		mu.Unlock()
	})}, extra...)
	return open(t, g, opts...)
}

func TestTranslationCacheHit(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	base := uint64(g.Module("alpha.sys").Base)
	buf := make([]byte, 64)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.PTWalks != 1 || s.TLBHits != 0 {
		t.Fatalf("cold read: %+v, want 1 walk / 0 hits", s)
	}
	// Same page again: the software TLB must serve the translation.
	if err := h.ReadVA(base+128, buf); err != nil {
		t.Fatal(err)
	}
	s = h.Stats()
	if s.PTWalks != 1 || s.TLBHits != 1 {
		t.Errorf("warm read: %+v, want 1 walk / 1 hit", s)
	}
}

func TestTranslationCacheHitCost(t *testing.T) {
	var total time.Duration
	h := chargedOpen(t, &total)
	base := uint64(0)
	// Find a module base via the handle's own guest: reuse symbol resolution
	// instead (PsLoadedModuleList head page is mapped).
	headVA, err := h.SymbolVA("PsLoadedModuleList")
	if err != nil {
		t.Fatal(err)
	}
	base = headVA
	buf := make([]byte, 4)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	cold := total
	if cold != CostPTWalk+CostPageRead {
		t.Errorf("cold read charged %v, want %v", cold, CostPTWalk+CostPageRead)
	}
	total = 0
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if total != CostTLBHit+CostPageRead {
		t.Errorf("warm read charged %v, want %v", total, CostTLBHit+CostPageRead)
	}
}

func TestWithoutTranslationCache(t *testing.T) {
	g := testGuest(t)
	h := open(t, g, WithoutTranslationCache())
	base := uint64(g.Module("alpha.sys").Base)
	buf := make([]byte, 8)
	for i := 0; i < 3; i++ {
		if err := h.ReadVA(base, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := h.Stats()
	if s.PTWalks != 3 || s.TLBHits != 0 {
		t.Errorf("uncached handle: %+v, want 3 walks / 0 hits", s)
	}
}

func TestInvalidateTranslations(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	base := uint64(g.Module("alpha.sys").Base)
	buf := make([]byte, 8)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	h.InvalidateTranslations()
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.PTWalks != 2 || s.TLBHits != 0 {
		t.Errorf("after explicit invalidation: %+v, want 2 walks / 0 hits", s)
	}
}

func TestEpochInvalidation(t *testing.T) {
	g := testGuest(t)
	var epoch atomic.Uint64
	h := open(t, g, WithInvalidation(epoch.Load))
	base := uint64(g.Module("alpha.sys").Base)
	buf := make([]byte, 8)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.TLBHits != 1 {
		t.Fatalf("pre-invalidation: %+v, want 1 hit", s)
	}
	// The epoch source moving (a snapshot revert, a lifecycle event) must
	// flush every cached translation on the next lookup.
	epoch.Add(1)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.PTWalks != 2 || s.TLBHits != 1 {
		t.Errorf("post-invalidation: %+v, want 2 walks / 1 hit", s)
	}
}

func TestSharedStatsAggregate(t *testing.T) {
	g := testGuest(t)
	var shared SharedStats
	h1 := open(t, g, WithSharedStats(&shared))
	h2 := open(t, g, WithSharedStats(&shared))
	base := uint64(g.Module("alpha.sys").Base)
	buf := make([]byte, mm.PageSize)
	if err := h1.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if err := h2.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	s := shared.Snapshot()
	if s.PTWalks != 2 || s.PagesRead != 2 {
		t.Errorf("shared stats: %+v, want 2 walks / 2 pages across handles", s)
	}
	if s.BytesRead != 2*uint64(len(buf)) {
		t.Errorf("shared BytesRead = %d", s.BytesRead)
	}
}
