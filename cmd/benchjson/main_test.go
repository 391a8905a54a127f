package main

import (
	"os"
	"path/filepath"
	"testing"
)

func touch(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFindBaselineExcludesOutput(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "BENCH_8.json")
	touch(t, dir, "BENCH_9.json")

	// Writing BENCH_9.json: the newest *other* record is the baseline. The
	// historical bug compared the fresh run against the file it had just
	// written — every delta 0.0%, every regression invisible.
	got := findBaseline(dir, "BENCH_9.json")
	if want := filepath.Join(dir, "BENCH_8.json"); got != want {
		t.Errorf("findBaseline = %q, want %q", got, want)
	}

	// A first run has nothing to compare against.
	if got := findBaseline(t.TempDir(), "BENCH_1.json"); got != "" {
		t.Errorf("empty dir: findBaseline = %q, want \"\"", got)
	}
}

func TestFindBaselineOrdersNumerically(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "BENCH_2.json")
	touch(t, dir, "BENCH_10.json")
	touch(t, dir, "BENCH_9.json")

	// Lexically "BENCH_9.json" > "BENCH_10.json"; numerically 10 wins.
	got := findBaseline(dir, "BENCH_11.json")
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("findBaseline = %q, want %q", got, want)
	}
}

func TestFindBaselineSkipsNonMatchingNames(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "BENCH_notes.json")
	touch(t, dir, "BENCH_3.txt")
	touch(t, dir, "bench_4.json")
	touch(t, dir, "BENCH_3.json")

	got := findBaseline(dir, "")
	if want := filepath.Join(dir, "BENCH_3.json"); got != want {
		t.Errorf("findBaseline = %q, want %q", got, want)
	}
}

func TestSameFileCatchesSpellings(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "BENCH_9.json")
	p := filepath.Join(dir, "BENCH_9.json")

	cases := []struct {
		a, b string
		want bool
	}{
		{p, p, true},
		{p, filepath.Join(dir, ".", "BENCH_9.json"), true},
		{p, filepath.Join(dir, "BENCH_8.json"), false},
		// Both nonexistent but lexically equal: still the same target.
		{filepath.Join(dir, "new.json"), filepath.Join(dir, "x", "..", "new.json"), true},
	}
	for _, c := range cases {
		if got := sameFile(c.a, c.b); got != c.want {
			t.Errorf("sameFile(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkFig7Sweep15/pipeline-8   12   94821 ns/op   3.21 sim-ms/op   104 ptwalks/op   5120 B/op   41 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkFig7Sweep15/pipeline" || b.Iterations != 12 {
		t.Errorf("name/iters = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 94821 || b.Metrics["sim-ms/op"] != 3.21 || b.Metrics["ptwalks/op"] != 104 {
		t.Errorf("metrics = %v (ns %v)", b.Metrics, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 5120 || b.AllocsPerOp == nil || *b.AllocsPerOp != 41 {
		t.Errorf("benchmem fields = %v/%v", b.BytesPerOp, b.AllocsPerOp)
	}
	if _, ok := parseLine("ok  \tmodchecker\t13.468s"); ok {
		t.Error("non-benchmark line parsed")
	}
}

func TestParsePerfbench(t *testing.T) {
	w, ok, err := parsePerfbench(`perfbench paper15 {"correct":true,"attempted":10,"failed":0,"metrics":{"sweep_s_p50":{"value":0.04,"unit":"s"},"checks_per_s":{"value":2600,"unit":"1/s"}}}`)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w.Name != "paper15" || !w.Correct || w.Metrics["sweep_s_p50"] != 0.04 || w.Metrics["checks_per_s"] != 2600 {
		t.Errorf("parsed %+v", w)
	}
	if _, ok, err := parsePerfbench("perfbench paper15 {not json"); !ok || err == nil {
		t.Errorf("malformed result: ok=%v err=%v, want a parse error", ok, err)
	}
	if _, ok, _ := parsePerfbench("BenchmarkFig7Sweep15/pipeline-8 12 94821 ns/op"); ok {
		t.Error("go-test line taken for a perfbench line")
	}
}

func TestCompareRunsPerfbenchDirection(t *testing.T) {
	run := func(sweep, checks float64) *Output {
		return &Output{Perfbench: []Workload{{Name: "paper15", Correct: true,
			Metrics: map[string]float64{"sweep_s_p50": sweep, "checks_per_s": checks}}}}
	}
	// Both worsen by 20%: a slower sweep and a lower throughput regress.
	rows := compareRuns(run(0.05, 2000), run(0.06, 1600))
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Bench != "perfbench/paper15" || !r.Regressed {
			t.Errorf("row %+v: want a perfbench regression", r)
		}
	}
	// Both improve: nothing is flagged.
	for _, r := range compareRuns(run(0.05, 2000), run(0.04, 2500)) {
		if r.Regressed {
			t.Errorf("row %+v flagged as a regression", r)
		}
	}
}
