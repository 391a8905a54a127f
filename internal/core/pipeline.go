package core

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/binary"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modchecker/internal/metrics"
	"modchecker/internal/trace"
)

// This file holds the concurrency machinery of the pool check's hot path:
// a bounded worker pool for the fetch, digest and compare stages, a
// deterministic critical-path model for simulated wall-clock under
// parallelism, the oracle's pairwise comparison stage, and the digest that
// lets the engine (engine.go) replace O(n²) pairwise comparison with O(n)
// clustering.
//
// Determinism invariant: nothing here lets host scheduling influence a
// result. Workers record into per-index slots, simulated elapsed time is
// derived from the cost slice by list scheduling (never from goroutine
// timing), and the hypervisor clock's stretch factor depends only on domain
// pause states, so the sum of charges is independent of interleaving.

// DefaultWorkers bounds the parallel fetch and compare stages when
// Config.Workers is zero. Eight matches the paper's testbed host — a
// quad-core i7 with HyperThreading — and its 8-thread parallel enhancement.
const DefaultWorkers = 8

// workers returns the effective worker bound.
func (c *Checker) workers() int {
	if c.cfg.Workers > 0 {
		return c.cfg.Workers
	}
	return DefaultWorkers
}

// runBounded executes task(i) for every i in [0, n) on at most w concurrent
// goroutines, each labeled with the pipeline stage for pprof attribution
// (`go test -cpuprofile` samples carry a stage= label). Tasks must record
// results by index; the shared cursor only balances load, so completion
// order never affects the outcome.
func runBounded(stage string, n, w int, task func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	labels := pprof.Labels("stage", stage)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					task(i)
				}
			})
		}()
	}
	wg.Wait()
}

// schedule models running tasks with the given costs on w workers: tasks
// are list-scheduled in index order onto the earliest-free worker (ties to
// the lowest-numbered one). It returns each task's worker lane and start
// offset plus the makespan. The model depends only on the cost slice and w —
// never on host scheduling — which is what keeps parallel sweeps (and their
// trace exports) byte-identical across runs from one seed.
func schedule(costs []time.Duration, w int) (lanes []int, starts []time.Duration, makespan time.Duration) {
	if len(costs) == 0 {
		return nil, nil, 0
	}
	if w < 1 {
		w = 1
	}
	if w > len(costs) {
		w = len(costs)
	}
	lanes = make([]int, len(costs))
	starts = make([]time.Duration, len(costs))
	loads := make([]time.Duration, w)
	for k, c := range costs {
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		lanes[k] = min
		starts[k] = loads[min]
		loads[min] += c
	}
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return lanes, starts, makespan
}

// criticalPath returns just the makespan of the deterministic list schedule.
func criticalPath(costs []time.Duration, w int) time.Duration {
	_, _, makespan := schedule(costs, w)
	return makespan
}

// run executes task(i) for every i in [0, n): on the bounded worker pool in
// parallel mode, in index order otherwise.
func (c *Checker) run(stage string, n int, task func(int)) {
	if c.cfg.Parallel {
		runBounded(stage, n, c.workers(), task)
		return
	}
	for i := 0; i < n; i++ {
		task(i)
	}
}

// stageWorkers is the worker count the elapsed-time model uses: the bounded
// pool in parallel mode, one lane sequentially.
func (c *Checker) stageWorkers() int {
	if c.cfg.Parallel {
		return c.workers()
	}
	return 1
}

// traceStage computes one pipeline stage's simulated elapsed time from its
// per-task costs and — when tracing is enabled — renders the stage on the
// simulated timeline: a stage envelope on the coordinator lane (tid 0) plus
// one span per task on the worker lane the deterministic list schedule
// assigns it, then advances the timeline cursor by the stage's elapsed.
// Timestamps come from the schedule model, never from host execution, so
// the trace is byte-identical across runs from one seed. Must only be
// called from a stage's driving goroutine (the emission discipline
// internal/trace documents).
//
// Task names are supplied lazily through nameFn: the hot path runs with
// tracing off, and building a per-task label slice per stage per module is
// pure allocator churn there.
func (c *Checker) traceStage(stage, module string, nameFn func(int) string, costs []time.Duration) time.Duration {
	lanes, starts, elapsed := schedule(costs, c.stageWorkers())
	tr := c.cfg.Tracer
	if tr == nil || len(costs) == 0 {
		return elapsed
	}
	base := tr.Cursor()
	args := []trace.Arg{{Key: "tasks", Val: strconv.Itoa(len(costs))}}
	if module != "" {
		args = append(args, trace.Arg{Key: "module", Val: module})
	}
	tr.Complete("stage:"+stage, "pipeline", trace.PIDPipeline, 0, base, elapsed, args...)
	for k := range costs {
		tr.Complete(nameFn(k), stage, trace.PIDPipeline, lanes[k]+1, base+starts[k], costs[k])
	}
	tr.Advance(elapsed)
	return elapsed
}

// fetchStage runs Searcher+Parser for every VM of src — on the bounded
// worker pool in parallel mode — and returns the fetches plus the stage's
// simulated elapsed time (sum of work when sequential, deterministic
// makespan across the workers when parallel). Every returned fetch owns a
// pooled module buffer until releaseFetched runs.
//
//modown:pool module-fetch get
func (c *Checker) fetchStage(module string, src *poolSource) ([]*fetched, time.Duration) {
	fetches := make([]*fetched, len(src.vms))
	c.run("fetch", len(src.vms), func(i int) {
		fetches[i] = src.fetch(c, module, i)
	})
	costs := make([]time.Duration, len(fetches))
	for i, f := range fetches {
		costs[i] = f.timing.Total()
	}
	return fetches, c.traceStage("fetch", module,
		func(k int) string { return "fetch " + fetches[k].target.Name }, costs)
}

// pairKey identifies one unordered healthy pair (i < j) of a pool sweep.
type pairKey struct{ i, j int }

// comparePairwise is the oracle's comparison stage: Algorithm 2 plus
// hashing on every healthy pair independently. Returns the mismatch lists
// keyed by pair, the total checker work, and the stage's elapsed time.
//
//moddet:sink comparison results must not depend on host state or ordering
func (c *Checker) comparePairwise(module string, fetches []*fetched) (map[pairKey][]string, time.Duration, time.Duration) {
	var pairs []pairKey
	for i := range fetches {
		if fetches[i].err != nil {
			continue
		}
		for j := i + 1; j < len(fetches); j++ {
			if fetches[j].err == nil {
				pairs = append(pairs, pairKey{i, j})
			}
		}
	}
	mms := make([][]string, len(pairs))
	costs := make([]time.Duration, len(pairs))
	compareOne := func(k int) {
		p := pairs[k]
		mm, cost := c.compare(fetches[p.i], fetches[p.j])
		mms[k] = mm
		costs[k] = c.charge(cost)
	}
	c.run("compare", len(pairs), compareOne)
	mismatches := make(map[pairKey][]string, len(pairs))
	var work time.Duration
	for k, p := range pairs {
		mismatches[p] = mms[k]
		work += costs[k]
	}
	elapsed := c.traceStage("compare", module, func(k int) string {
		p := pairs[k]
		return "compare " + fetches[p.i].target.Name + " vs " + fetches[p.j].target.Name
	}, costs)
	return mismatches, work, elapsed
}

// DigestStats counts how the engine's digest stage served Normalize
// components: memos seeded, copies replayed against a memo's site list, and
// full diff scans outside the seeding task. Seeding runs on the driving
// goroutine and every later path is a function of the bytes compared, so
// the counts are a pure function of guest memory, however the workers
// interleave. The counters are metrics.Counter values so the same figures
// publish through a metrics.Registry via Bind.
type DigestStats struct {
	seeded    metrics.Counter
	replays   metrics.Counter
	fallbacks metrics.Counter
}

// Bind publishes the counters through the registry under the core/ prefix.
func (s *DigestStats) Bind(r *metrics.Registry) {
	r.RegisterFunc("core/digest_memo_seeded", s.seeded.Load)
	r.RegisterFunc("core/digest_replays", s.replays.Load)
	r.RegisterFunc("core/digest_fallbacks", s.fallbacks.Load)
}

// digestMemo is one module check's reference memo: for each Normalize
// component of the reference, the normal form the first digest task in pool
// order left on the reference side, its MD5, and the rewrite sites that
// produced it. Later copies that replaySites accepts against that site list
// normalize to the memo's bytes on both sides, so their digest parts reuse
// its sum with no copy, scan or hash. The memo keeps no copies: its bytes
// are the seeding task's pooled scratch buffer, recycled by release.
//
// The seeding task runs on the driving goroutine before any worker starts
// (digestStage), and the workers only read the memo, so it needs no lock.
type digestMemo struct {
	comps  []memoEntry // indexed like the reference's components
	sealed bool        // the seeding task has run; only reads follow
}

// memoEntry is one component's memo; buf is nil when the component is not
// memoized. width is the address width of the seeding pair's scan, which
// found sites: a pair of another width decodes other windows.
type memoEntry struct {
	buf   *[]byte
	sum   [md5.Size]byte
	sites []uint32
	width int
}

// replays reports whether the full scan of data against the reference
// component ref, at width, would normalize both to the memo's bytes
// (replaySites), so their digest parts may take the memo's sum.
func (e *memoEntry) replays(data, ref []byte, base, refBase uint64, width int) bool {
	return e.width == width && replaySites(data, ref, e.sites, base, refBase, width)
}

// entry returns the memo of reference component i, or nil.
func (m *digestMemo) entry(i int) *memoEntry {
	if i >= len(m.comps) || m.comps[i].buf == nil {
		return nil
	}
	return &m.comps[i]
}

// keep memoizes reference component i (of n) from the seeding task's
// reference-side buffer, normalized at width, taking ownership of buf.
//
//modown:transfer scratch
func (m *digestMemo) keep(i, n int, buf *[]byte, sum [md5.Size]byte, sites []uint32, width int) {
	if m.comps == nil {
		m.comps = make([]memoEntry, n)
	}
	m.comps[i] = memoEntry{buf: buf, sum: sum, sites: sites, width: width}
}

// release recycles every memoized buffer at module end.
func (m *digestMemo) release() {
	for i := range m.comps {
		if m.comps[i].buf != nil {
			putScratch(m.comps[i].buf)
		}
	}
	m.comps = nil
}

// digestStage digests every fetch of batch against ref. The first task of a
// module check seeds memo on the driving goroutine; every other task fans
// out on the worker pool and only reads the memo.
func (c *Checker) digestStage(ref *fetched, batch []*fetched, memo *digestMemo) ([]string, []time.Duration) {
	keys := make([]string, len(batch))
	costs := make([]time.Duration, len(batch))
	digest := func(k int) {
		key, cost := c.digestAgainst(ref, batch[k], memo)
		keys[k] = key
		costs[k] = c.charge(cost)
	}
	first := 0
	if !memo.sealed && len(batch) > 0 {
		digest(0)
		memo.sealed = true
		first = 1
	}
	c.run("digest", len(batch)-first, func(k int) { digest(first + k) })
	return keys, costs
}

// digestAgainst computes one copy's cluster key: every component normalized
// against the reference fetch and digested, folding in both normalized
// sides. Including the reference's normalized side is what makes digest
// equality imply a pairwise match: two copies share a key only if they
// rewrote the reference identically, which rules out a tampered byte that
// happens to coincide with a legitimate copy's normalized form.
//
// memo, when not nil, is the module check's reference memo (digestMemo):
// an unsealed one is seeded from this copy, a sealed one only read. The key
// and the cost are the same with and without it; only host work differs.
//
//moddet:sink digest keys must be a pure function of guest memory
func (c *Checker) digestAgainst(ref, f *fetched, memo *digestMemo) (string, time.Duration) {
	h := md5.New()
	var cost time.Duration
	var lenBuf [8]byte
	writePart := func(name string, n int, sum [md5.Size]byte) {
		h.Write([]byte(name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
		h.Write(sum[:])
	}
	seeding := memo != nil && !memo.sealed
	var seeded, replays, fallbacks uint64
	for i := range f.parsed.Components {
		comp := &f.parsed.Components[i]
		if c.cfg.Normalizer == NormalizeRelocTable {
			// Per-VM normalized hashes were precomputed (and charged) at
			// parse time; the digest just folds them together.
			writePart(comp.Name, len(comp.Data), f.normHashes[comp.Name])
			continue
		}
		ri := ref.parsed.componentIndex(comp.Name)
		if comp.Normalize && ri >= 0 {
			data, refData := comp.Data, ref.parsed.Components[ri].Data
			cost += perKB(len(data)+len(refData), scanCostPerKB)
			cost += perKB(len(data)+len(refData), hashCostPerKB)
			base, refBase, width := f.info.DllBase, ref.info.DllBase, pairWidth(f.parsed, ref.parsed)
			var m *memoEntry
			if memo != nil {
				m = memo.entry(ri)
			}
			if m != nil && m.replays(data, refData, base, refBase, width) {
				replays++
				writePart(comp.Name, len(data), m.sum)
				writePart("", len(refData), m.sum)
				continue
			}
			sa := getScratch(len(data))
			sb := getScratch(len(refData))
			copy(*sa, data)
			copy(*sb, refData)
			sites := normalizePairInPlace(*sa, *sb, base, refBase, width)
			var refSum [md5.Size]byte
			if m != nil && bytes.Equal(*sb, *m.buf) {
				refSum = m.sum
			} else {
				refSum = md5.Sum(*sb)
			}
			equal := bytes.Equal(*sa, *sb)
			sum := refSum
			if !equal {
				sum = md5.Sum(*sa)
			}
			writePart(comp.Name, len(*sa), sum)
			writePart("", len(*sb), refSum)
			putScratch(sa)
			// Only a clean pair seeds: an infected first copy leaves the
			// component un-memoized, slower but still exact.
			if seeding && equal && m == nil {
				memo.keep(ri, len(ref.parsed.Components), sb, refSum, sites, width)
				seeded++
			} else {
				putScratch(sb)
				if !seeding {
					fallbacks++
				}
			}
			continue
		}
		// Non-relocated components (and components the reference lacks)
		// cluster on their raw hash: equal raw bytes match pairwise under
		// any base pair, since the diff scan sees no differing bytes.
		cost += perKB(len(comp.Data), hashCostPerKB)
		writePart(comp.Name, len(comp.Data), md5.Sum(comp.Data))
	}
	c.stats.seeded.Add(seeded)
	c.stats.replays.Add(replays)
	c.stats.fallbacks.Add(fallbacks)
	return string(h.Sum(nil)), cost
}
