package core

// This file holds the pool-check engine: the one implementation of the
// paper's pool check — fetch every VM's copy, compare under Algorithm 2,
// take a majority vote — behind both PoolSweep.CheckModule and
// Checker.CheckPool. The only other path is Config.FullPairwise, the
// paper-faithful O(n²) oracle in pool.go.
//
// One module check runs these stages, in order:
//
//   - Lookup (only with a digest store, Config.DigestCache): each identity
//     leader's content token (copy-on-write base-layer SnapshotID + mapping
//     epoch) is looked up before anything is fetched. A hit provably names
//     bit-identical guest memory, so the VM's digest cluster key and
//     component names are replayed for one CostCASLookup instead of a
//     fetch+parse+digest. A steady-state sweep over an unchanged pool
//     fetches nothing; an infected VM costs two fetches (its own copy plus
//     the reference it digests against) — O(changed), not O(pool).
//
//   - Fetch + digest, in shards of at most ShardSize leaders: every miss is
//     fetched and digested against the pool-wide reference (the first
//     healthy leader in pool order). Only the first copy of each digest key
//     stays resident, so resident module copies are O(ShardSize +
//     clusters). Digest equality implies a pairwise match, and every shard
//     digests against the same reference in pool order, so shard clusters
//     compose into pool clusters without re-comparison: reports, traces and
//     charges are the same for every shard size.
//
//   - Compare: one true Algorithm 2 comparison per cluster pair, replayed
//     from the store when that key pair was compared before.
//
//   - Derive: verdicts fall out of cluster sizes in O(clusters² + pool), and
//     ModuleReports come from cluster structure (deriveClusters) — for every
//     VM, or only for non-clean VMs under Config.LeanReports.
//
// Identity dedup (Config.DedupIdentical): copy-on-write clones that still
// share their template's frozen image (Target.Identity) are introspected
// once per identity group and share their leader's outcome. All state
// beyond the per-VM outcome (errors, bases, clusters, fetch costs) is sized
// by leaders or clusters, so a deduped 100k-VM sweep stays O(templates).
//
// Cost model: CostCASLookup is charged only on hits, so a cold store charges
// exactly what a storeless run charges, in the same per-VM order — its
// report, simulated time included, is byte-identical (the differential
// tests pin this). Warm runs charge less and agree on everything else.
//
// Determinism: the store is consulted only from the driving goroutine, in
// pool order. Parallel stages never touch it — insert order feeds FIFO
// eviction, eviction feeds later hit/miss patterns, and those feed
// simulated time, which must replay byte-identically for a fixed seed.

import (
	"sort"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/faults"
)

// clusterPair identifies one unordered pair of digest clusters (a < b).
type clusterPair struct{ a, b int }

// pairIndex returns the position of cluster pair (a, b), a != b, in the
// lexicographic enumeration of all pairs of n clusters — the order the
// compare stage lists them in.
func pairIndex(a, b, n int) int {
	if a > b {
		a, b = b, a
	}
	return a*n - a*(a+1)/2 + b - a - 1
}

// poolSource is the pool one engine run checks: a sweep session's pool, or
// a plain target list (CheckPool).
type poolSource struct {
	vms []Target
	// leaders lists every identity leader's VM index in pool order, and
	// leader[i] is VM i's leader (i itself when it leads).
	leaders []int
	leader  []int
	// session, when set, serves fetches from its module-table snapshot and
	// resolves modules for the lookup stage.
	session *PoolSweep
}

// fetch copies and parses VM i's module: from the session's snapshot, or
// by walking the VM's module list when there is no session.
//
//modown:pool module-fetch get
func (src *poolSource) fetch(c *Checker, module string, i int) *fetched {
	if src.session != nil {
		return src.session.fetchVM(i, module)
	}
	return c.fetchAndParse(src.vms[i], module)
}

// selfLeaders returns the identity map over n VMs: every VM leads itself.
func selfLeaders(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// sourceToken samples one target's content token. Targets without a stable
// identity (dirtied frames, destroyed domain, installed fault plan) yield an
// invalid token, which never hits and is never stored — a faulted or
// mutated read can therefore never populate the cache.
func sourceToken(t Target) cas.Token {
	if t.Identity == nil {
		return cas.Token{}
	}
	id, ok := t.Identity()
	if !ok {
		return cas.Token{}
	}
	tok := cas.Token{ID: id, OK: true}
	if t.Epoch != nil {
		tok.Epoch = t.Epoch()
	}
	return tok
}

// componentNames extracts a fetched copy's component names in module order.
func componentNames(f *fetched) []string {
	comps := f.parsed.Components
	names := make([]string, len(comps))
	for k := range comps {
		names[k] = comps[k].Name
	}
	return names
}

// checkClustered checks one module across the source's pool, in shards of
// at most shard leaders (zero: one shard), consulting store when it is not
// nil. A store run can be contradicted mid-sweep: if the pool is mutated
// under a hit, a fetch the token vouched for fails. That run is discarded
// and the module rerun without the store.
func (c *Checker) checkClustered(module string, src *poolSource, shard int, store *cas.Store) *PoolReport {
	if store != nil {
		if rep, ok := c.clusterPass(module, src, shard, store); ok {
			return rep
		}
	}
	rep, _ := c.clusterPass(module, src, shard, nil)
	return rep
}

// clusterPass is one engine run. It reports ok=false (and a nil report)
// only when store is set and a fetch its tokens guaranteed would succeed
// failed anyway; with a nil store it always succeeds.
//
//moddet:sink digest clustering must not depend on host state or ordering
func (c *Checker) clusterPass(module string, src *poolSource, shard int, store *cas.Store) (*PoolReport, bool) {
	n, nl := len(src.vms), len(src.leaders)
	rep := &PoolReport{ModuleName: module}
	// Per-VM outcome; everything else is per leader (indexed by position in
	// src.leaders) or per cluster.
	errs := make([]error, n)
	clusterOf := make([]int, n) // -1: no healthy copy
	fetchCosts := make([]time.Duration, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	fetches := make([]*fetched, nl)
	keys := make([]string, nl) // digest cluster key; "" only in the reference cluster
	var hit []bool             // replayed from the store, per leader
	var hitNames [][]string    // component names replayed from the store, per leader
	// bases[p] is leader p's load base; identity dups share their leader's.
	bases := make([]uint64, nl)
	var checkerWork time.Duration
	// Buffers retained past their bookkeeping (cluster representatives, the
	// reference) are released here; releaseFetched is a no-op for buffers
	// already recycled during shard processing.
	defer func() {
		for _, f := range fetches {
			c.releaseFetched(f)
		}
	}()
	// fetchLeader fetches leader p on the driving goroutine, accounts it,
	// and keeps a healthy copy in fetches[p].
	fetchLeader := func(p int) error {
		i := src.leaders[p]
		f := src.fetch(c, module, i)
		fetchCosts[i] += f.timing.Total()
		rep.Timing.Add(f.timing)
		if err := f.err; err != nil {
			c.releaseFetched(f)
			return err
		}
		fetches[p] = f
		return nil
	}

	// Lookup stage, in pool order: resolve the reference (the first leader
	// that is — or provably would be — fetchable), replay digest entries for
	// token-valid leaders, and queue the rest as misses. Without a store
	// every leader is a miss and the reference is the first healthy fetch.
	ref := -1 // leader position of the reference, which fronts cluster 0
	var refTok cas.Token
	var toks []cas.Token
	var miss []int // leader positions to fetch and digest, pool order
	if store == nil {
		miss = selfLeaders(nl)
	} else {
		toks = make([]cas.Token, nl)
		hit = make([]bool, nl)
		hitNames = make([][]string, nl)
		for p, i := range src.leaders {
			info, err := src.session.locate(i, module)
			if err != nil {
				errs[i] = err
				continue
			}
			toks[p] = sourceToken(src.vms[i])
			if toks[p].OK {
				// Only the VM's own reference entry can stand in for an
				// unfetched reference: it proves fetch+parse succeed on
				// this image.
				against := refTok
				if ref < 0 {
					against = toks[p]
				}
				if e, ok := store.LookupDigest(module, against, toks[p]); ok {
					lc := c.charge(CostCASLookup)
					fetchCosts[i] = lc
					checkerWork += lc
					bases[p] = info.DllBase
					hit[p] = true
					hitNames[p] = e.Names
					if ref < 0 {
						ref, refTok = p, toks[p]
						clusterOf[i] = 0
					} else {
						keys[p] = e.Key
					}
					continue
				}
			}
			if ref >= 0 {
				miss = append(miss, p)
				continue
			}
			// Every later lookup is keyed by the reference's token, so a
			// missing reference is fetched right here.
			if err := fetchLeader(p); err != nil {
				errs[i] = err
				continue
			}
			bases[p] = fetches[p].info.DllBase
			ref, refTok = p, toks[p]
			clusterOf[i] = 0
		}
		// Misses digest against the reference, so its bytes must exist. A
		// hit reference is only materialized when something missed — the
		// all-hit steady state fetches nothing.
		if len(miss) > 0 && fetches[ref] == nil && fetchLeader(ref) != nil {
			return nil, false
		}
	}

	// The reference memo lives for this module check: the first digest task
	// seeds it, and every later one, in any shard, only reads it.
	memo := &digestMemo{}
	defer memo.release()

	// Fetch + digest stage, shard by shard: bookkeeping in pool order, and
	// only the first fetched copy of each digest key keeps its buffer, as
	// the materialized representative for the compare stage.
	var digestVM []int // VM index per digest task, pool order
	var digestCosts []time.Duration
	keyFetched := make(map[string]int) // digest key -> leader position retaining bytes
	if shard <= 0 || shard > len(miss) {
		shard = len(miss)
	}
	for lo := 0; lo < len(miss); lo += shard {
		batch := miss[lo:min(lo+shard, len(miss))]
		c.run("fetch", len(batch), func(k int) {
			fetches[batch[k]] = src.fetch(c, module, src.leaders[batch[k]])
		})
		var toDigest []int       // leader positions, pool order
		var digesting []*fetched // their fetches
		for _, p := range batch {
			i, f := src.leaders[p], fetches[p]
			fetchCosts[i] = f.timing.Total()
			rep.Timing.Add(f.timing)
			if f.err != nil {
				errs[i] = f.err
				c.releaseFetched(f)
				fetches[p] = nil
				continue
			}
			bases[p] = f.info.DllBase
			if ref < 0 {
				ref = p
				clusterOf[i] = 0
				continue
			}
			toDigest = append(toDigest, p)
			digesting = append(digesting, f)
		}
		if len(toDigest) == 0 {
			continue
		}
		dkeys, dcosts := c.digestStage(fetches[ref], digesting, memo)
		for k, p := range toDigest {
			keys[p] = dkeys[k]
			digestVM = append(digestVM, src.leaders[p])
			digestCosts = append(digestCosts, dcosts[k])
			checkerWork += dcosts[k]
			if _, ok := keyFetched[keys[p]]; ok {
				c.releaseFetched(fetches[p])
				fetches[p] = nil
			} else {
				keyFetched[keys[p]] = p
			}
		}
	}

	// Cluster assignment over every healthy leader, hits and misses
	// interleaved in pool order, so cluster numbering is encounter order.
	// An empty key on a non-reference leader is a store hit whose token
	// equals the reference's (a bit-identical clone): cluster 0. Digest
	// equality folds every component name in order, so all members share
	// their representative's component names.
	var reps []int // leader position of each cluster's first member; reps[0] is ref
	var repNames [][]string
	newCluster := func(p int) int {
		reps = append(reps, p)
		if hit != nil && hit[p] {
			repNames = append(repNames, hitNames[p])
		} else {
			repNames = append(repNames, componentNames(fetches[p]))
		}
		return len(reps) - 1
	}
	if ref >= 0 {
		newCluster(ref)
		byKey := make(map[string]int)
		for p, i := range src.leaders {
			if p == ref || errs[i] != nil {
				continue
			}
			if keys[p] == "" {
				clusterOf[i] = 0
				continue
			}
			cid, ok := byKey[keys[p]]
			if !ok {
				cid = newCluster(p)
				byKey[keys[p]] = cid
			}
			clusterOf[i] = cid
		}
	}
	keyOf := func(cid int) string { return keys[reps[cid]] }

	// Compare stage: one true comparison per cluster pair — replayed from
	// the store when the key pair's outcome is cached (an empty cached list
	// is a cached match), computed otherwise.
	nc := len(reps)
	var cpairs []clusterPair
	for a := 0; a < nc; a++ {
		for b := a + 1; b < nc; b++ {
			cpairs = append(cpairs, clusterPair{a, b})
		}
	}
	repMMs := make([][]string, len(cpairs)) // indexed by pairIndex
	repCosts := make([]time.Duration, len(cpairs))
	var toCompare []int
	for k, p := range cpairs {
		if store != nil && refTok.OK {
			if mm, ok := store.LookupMismatch(module, refTok, keyOf(p.a), keyOf(p.b)); ok {
				repMMs[k] = mm
				lc := c.charge(CostCASLookup)
				repCosts[k] = lc
				checkerWork += lc
				continue
			}
		}
		toCompare = append(toCompare, k)
	}
	if len(toCompare) > 0 {
		// Resolve bytes for every cluster a real comparison touches: the
		// retained first fetch of its key, otherwise the cluster's first
		// member, materialized if it was a hit.
		needed := make([]bool, nc)
		for _, k := range toCompare {
			needed[cpairs[k].a] = true
			needed[cpairs[k].b] = true
		}
		repBytes := make([]*fetched, nc)
		for cid, p := range reps {
			if !needed[cid] {
				continue
			}
			if q, ok := keyFetched[keyOf(cid)]; ok && keyOf(cid) != "" {
				repBytes[cid] = fetches[q]
				continue
			}
			if fetches[p] == nil && fetchLeader(p) != nil {
				return nil, false
			}
			repBytes[cid] = fetches[p]
		}
		c.run("compare", len(toCompare), func(k int) {
			p := cpairs[toCompare[k]]
			mm, cost := c.compare(repBytes[p.a], repBytes[p.b])
			repMMs[toCompare[k]] = mm
			repCosts[toCompare[k]] = c.charge(cost)
		})
		for _, k := range toCompare {
			checkerWork += repCosts[k]
		}
	}

	// Identity dups inherit their leader's outcome.
	for i, l := range src.leader {
		if l != i {
			errs[i] = errs[l]
			clusterOf[i] = clusterOf[l]
		}
	}

	// Store what this run learned — on the driving goroutine, in pool order,
	// so FIFO eviction replays deterministically. Entries are only written
	// under valid tokens: a VM fetched through a fault plan, or whose memory
	// has diverged from any frozen layer, has none.
	if store != nil && refTok.OK {
		for p, i := range src.leaders {
			if hit[p] || errs[i] != nil || !toks[p].OK || clusterOf[i] < 0 {
				continue
			}
			store.InsertDigest(module, refTok, toks[p], cas.Entry{Key: keys[p], Names: repNames[clusterOf[i]]})
		}
		for _, k := range toCompare {
			p := cpairs[k]
			store.InsertMismatch(module, refTok, keyOf(p.a), keyOf(p.b), repMMs[k])
		}
	}

	// One fetch, one digest and one compare stage per module, with globally
	// accumulated task costs: shard boundaries and cache hits are invisible
	// to the trace and to the elapsed-time model.
	rep.Stages.Fetch = c.traceStage("fetch", module,
		func(k int) string { return "fetch " + src.vms[k].Name }, fetchCosts)
	rep.Stages.Digest = c.traceStage("digest", module,
		func(k int) string { return "digest " + src.vms[digestVM[k]].Name }, digestCosts)
	rep.Stages.Compare = c.traceStage("compare", module, func(k int) string {
		p := cpairs[k]
		return "compare " + src.vms[src.leaders[reps[p.a]]].Name + " vs " + src.vms[src.leaders[reps[p.b]]].Name
	}, repCosts)
	rep.Elapsed = rep.Stages.Fetch + rep.Stages.Digest + rep.Stages.Compare
	rep.Timing.Checker += checkerWork

	first := make([]int, nc)
	for cid, p := range reps {
		first[cid] = src.leaders[p]
	}
	baseOf := func(i int) uint64 { return bases[sort.SearchInts(src.leaders, src.leader[i])] }
	c.deriveClusters(rep, module, src.vms, errs, baseOf, clusterOf, first, repNames, repMMs)
	return rep, true
}

// deriveClusters fills a PoolReport from cluster structure alone. clusterOf
// maps each VM to its cluster (-1 when errs holds its fault), baseOf returns
// a healthy VM's load base, first[cid] is cluster cid's first member in pool
// order, repNames[cid] its component names, and mms the representative
// mismatch lists by pairIndex.
//
// A VM's successes are its cluster's size minus itself plus every cluster
// whose representative comparison came back clean, so verdicts cost
// O(clusters²) once plus O(pool) to apply. Component tallies are weighted
// by cluster size. Full mode reproduces the pairwise derivation (derivePool)
// exactly, Pairs and MismatchedVMs included; lean mode (Config.LeanReports)
// builds reports only for non-clean VMs and omits those two O(pool) lists —
// alerts, verdicts, counts and tallies are the same in both modes.
func (c *Checker) deriveClusters(rep *PoolReport, module string, vms []Target, errs []error, baseOf func(int) uint64, clusterOf, first []int, repNames, mms [][]string) {
	full := !c.cfg.LeanReports
	nc := len(repNames)
	sizes := make([]int, nc)
	for _, cid := range clusterOf {
		if cid >= 0 {
			sizes[cid]++
			rep.Healthy++
		}
	}
	healthy := rep.Healthy
	mmOf := func(a, b int) []string {
		if a == b {
			return nil
		}
		return mms[pairIndex(a, b, nc)]
	}
	succ := make([]int, nc)
	verdicts := make([]Verdict, nc)
	for cid := range succ {
		s := sizes[cid] - 1
		for d := 0; d < nc; d++ {
			if d != cid && len(mmOf(cid, d)) == 0 {
				s += sizes[d]
			}
		}
		succ[cid] = s
		verdicts[cid] = c.verdict(s, healthy-1)
	}

	// The pairwise derivation meets a component the VM itself lacks at the
	// first peer (pool order) whose copy has it — the first member of the
	// lowest cluster d mentioning it — and counts matches for it only from
	// later peers. Clusters above d lie wholly past that peer; members of
	// clusters below d that also sit past it are counted by lateMatches(d).
	var late []int
	lateMatches := func(d int) int {
		if late == nil {
			late = make([]int, nc)
			for k := range late {
				late[k] = -1
			}
		}
		if late[d] < 0 {
			cnt := 0
			for j := first[d] + 1; j < len(vms); j++ {
				if cl := clusterOf[j]; cl >= 0 && cl < d {
					cnt++
				}
			}
			late[d] = cnt
		}
		return late[d]
	}

	for i := range vms {
		name := vms[i].Name
		if err := errs[i]; err != nil {
			r := &ModuleReport{ModuleName: module, TargetVM: name,
				Verdict: VerdictError, Err: err, ErrClass: faults.Classify(err)}
			r.Pairs = append(r.Pairs, PairResult{PeerVM: name, Err: err, ErrClass: r.ErrClass})
			rep.VMReports = append(rep.VMReports, r)
			rep.Errored = append(rep.Errored, name)
			continue
		}
		cid := clusterOf[i]
		v := verdicts[cid]
		if v == VerdictClean && !full {
			continue
		}
		r := &ModuleReport{
			ModuleName:  module,
			TargetVM:    name,
			Base:        baseOf(i),
			Successes:   succ[cid],
			Comparisons: healthy - 1,
			Verdict:     v,
		}
		order := append([]string(nil), repNames[cid]...)
		tallies := make(map[string]*ComponentTally, len(order))
		for _, cn := range order {
			tallies[cn] = &ComponentTally{Name: cn}
		}
		for d := 0; d < nc; d++ {
			w := sizes[d]
			if d == cid {
				w-- // every other member of the VM's own cluster matches it
			}
			mm := mmOf(cid, d)
			var seen map[string]bool
			if len(mm) > 0 {
				seen = make(map[string]bool, len(mm))
			}
			for _, cn := range mm {
				seen[cn] = true
				t, ok := tallies[cn]
				if !ok {
					t = &ComponentTally{Name: cn, Matches: lateMatches(d)}
					if cid < d && i > first[d] {
						t.Matches-- // the VM itself is no peer
					}
					tallies[cn] = t
					order = append(order, cn)
				}
				t.Mismatches += w
			}
			for _, cn := range order {
				if !seen[cn] {
					tallies[cn].Matches += w
				}
			}
		}
		if full {
			for j := range vms {
				if j == i {
					continue
				}
				if perr := errs[j]; perr != nil {
					r.Pairs = append(r.Pairs, PairResult{PeerVM: vms[j].Name, Err: perr, ErrClass: faults.Classify(perr)})
					continue
				}
				mm := mmOf(cid, clusterOf[j])
				if len(mm) == 0 {
					mm = nil
				}
				r.Pairs = append(r.Pairs, PairResult{PeerVM: vms[j].Name, Match: mm == nil, MismatchedComponents: mm})
				for _, cn := range mm {
					tallies[cn].MismatchedVMs = append(tallies[cn].MismatchedVMs, vms[j].Name)
				}
			}
		}
		for _, cn := range order {
			r.Components = append(r.Components, *tallies[cn])
		}
		rep.VMReports = append(rep.VMReports, r)
		switch v {
		case VerdictAltered:
			rep.Flagged = append(rep.Flagged, name)
		case VerdictInconclusive:
			rep.Inconclusive = append(rep.Inconclusive, name)
		}
	}
	sort.Strings(rep.Flagged)
	sort.Strings(rep.Inconclusive)
	sort.Strings(rep.Errored)
}
