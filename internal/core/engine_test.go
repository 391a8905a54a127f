package core

import (
	"fmt"
	"math/rand"
	"testing"

	"modchecker/internal/faults"
)

func TestPairIndexEnumeratesPairsInOrder(t *testing.T) {
	for n := 2; n <= 6; n++ {
		k := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if got := pairIndex(a, b, n); got != k {
					t.Errorf("pairIndex(%d, %d, %d) = %d, want %d", a, b, n, got, k)
				}
				if got := pairIndex(b, a, n); got != k {
					t.Errorf("pairIndex(%d, %d, %d) = %d, want %d", b, a, n, got, k)
				}
				k++
			}
		}
	}
}

// randomClusters draws one cluster structure the engine can produce: VMs
// are errored or healthy, cluster ids are numbered in order of each
// cluster's first member, and every cluster carries its own component
// names and a mismatch list per cluster pair. Names come from a small
// alphabet, so clusters lack components their peers have (the rolling
// update shape), and lists may repeat a name (a hostile PE with duplicate
// section names).
func randomClusters(rng *rand.Rand) (errs []error, clusterOf, first []int, repNames, mms [][]string) {
	alphabet := []string{"IMAGE_DOS_HEADER", ".text", ".rdata", ".data", "INIT", "PAGE"}
	pick := func(max int) []string {
		var out []string
		for k := rng.Intn(max + 1); k > 0; k-- {
			out = append(out, alphabet[rng.Intn(len(alphabet))])
		}
		return out
	}
	n := 2 + rng.Intn(11)
	errs = make([]error, n)
	clusterOf = make([]int, n)
	for i := range clusterOf {
		switch r := rng.Intn(10); {
		case r == 0:
			errs[i] = faults.Transient("vm unreadable")
			clusterOf[i] = -1
		case r < 3 || len(first) == 0:
			clusterOf[i] = len(first)
			first = append(first, i)
			repNames = append(repNames, pick(4))
		default:
			clusterOf[i] = rng.Intn(len(first))
		}
	}
	nc := len(first)
	mms = make([][]string, nc*(nc-1)/2)
	for k := range mms {
		mms[k] = pick(3)
	}
	return errs, clusterOf, first, repNames, mms
}

// TestDeriveClustersMatchesPairwiseDerivation is a generated oracle for the
// engine's report derivation: over random cluster structures, deriving from
// clusters must reproduce the pairwise derivation's reports exactly — every
// verdict, pair and tally, including components that only some clusters
// have and repeated names — and lean derivation must agree with it on every
// non-clean VM's verdict, counts and tallies.
func TestDeriveClustersMatchesPairwiseDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		errs, clusterOf, first, repNames, mms := randomClusters(rng)
		n, nc := len(errs), len(repNames)
		cfg := Config{Quorum: QuorumPolicy{MinPeers: rng.Intn(4)}}
		vms := make([]Target, n)
		bases := make([]uint64, n)
		fetches := make([]*fetched, n)
		for i := range vms {
			vms[i] = Target{Name: fmt.Sprintf("vm%d", i)}
			fetches[i] = &fetched{target: vms[i], err: errs[i]}
			if errs[i] != nil {
				continue
			}
			bases[i] = uint64(0x10000 * (i + 1))
			pm := &ParsedModule{}
			for _, name := range repNames[clusterOf[i]] {
				pm.Components = append(pm.Components, Component{Name: name})
			}
			fetches[i].info = &ModuleInfo{DllBase: bases[i]}
			fetches[i].parsed = pm
		}
		baseOf := func(i int) uint64 { return bases[i] }
		mismatches := make(map[pairKey][]string)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := clusterOf[i], clusterOf[j]
				if a < 0 || b < 0 || a == b {
					continue
				}
				if mm := mms[pairIndex(a, b, nc)]; len(mm) > 0 {
					mismatches[pairKey{i, j}] = mm
				}
			}
		}

		oracle := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).derivePool(oracle, "m", vms, fetches, mismatches)
		full := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).deriveClusters(full, "m", vms, errs, baseOf, clusterOf, first, repNames, mms)
		if got, want := poolSig(full), poolSig(oracle); got != want {
			t.Fatalf("iteration %d: cluster derivation diverges from pairwise:\n--- clusters\n%s--- pairwise\n%s", iter, got, want)
		}

		cfg.LeanReports = true
		lean := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).deriveClusters(lean, "m", vms, errs, baseOf, clusterOf, first, repNames, mms)
		if got, want := leanSig(lean), leanSig(oracle); got != want {
			t.Fatalf("iteration %d: lean derivation diverges from pairwise:\n--- lean\n%s--- pairwise\n%s", iter, got, want)
		}
	}
}

// leanSig fingerprints what a lean report keeps: the verdict lists, the
// healthy count, and every non-clean VM's verdict, counts and tallies.
func leanSig(rep *PoolReport) string {
	s := fmt.Sprintf("healthy=%d flagged=%v inconclusive=%v errored=%v\n",
		rep.Healthy, rep.Flagged, rep.Inconclusive, rep.Errored)
	for _, r := range rep.VMReports {
		if r.Verdict == VerdictClean {
			continue
		}
		s += fmt.Sprintf("vm=%s verdict=%v succ=%d comp=%d err=%v\n",
			r.TargetVM, r.Verdict, r.Successes, r.Comparisons, r.Err != nil)
		for _, c := range r.Components {
			s += fmt.Sprintf("  comp %s matches=%d mismatches=%d\n", c.Name, c.Matches, c.Mismatches)
		}
	}
	return s
}
