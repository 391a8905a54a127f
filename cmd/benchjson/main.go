// Command benchjson converts `go test -bench -benchmem` output into the
// repository's benchmark-trajectory JSON (BENCH_<n>.json). It is stdlib-only
// and deliberately dumb: every benchmark line becomes one record carrying
// host ns/op, B/op, allocs/op and any custom b.ReportMetric units
// (sim-ms/op, ptwalks/op, ...), and a summary block compares the
// Fig7Sweep15 legacy/pipeline pair — the PR's headline numbers.
//
// Lines of the form "perfbench <workload> <json>" carry one run of the
// repository benchmark (perfbench/run.sh), whose last output line is the
// JSON result; their end-to-end medians are stored beside the go-test legs.
//
// It also compares the run against the repository's newest prior
// BENCH_<n>.json (excluding the one being written) and prints per-benchmark
// deltas for ns/op, B/op, and sim-ms/op, plus every perfbench end-to-end
// metric, flagging regressions over 10% — the CI job summary's trend table.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... > bench.out
//	go run ./cmd/benchjson -out BENCH_3.json < bench.out
//	go run ./cmd/benchjson -out BENCH_8.json -md "$GITHUB_STEP_SUMMARY" < bench.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units, keyed by unit name
	// (e.g. "sim-ms/op", "ptwalks/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Workload is one perfbench workload run: whether every verdict was right,
// and its end-to-end metrics (medians over the run's sweeps), keyed by name.
type Workload struct {
	Name    string             `json:"name"`
	Correct bool               `json:"correct"`
	Metrics map[string]float64 `json:"metrics"`
}

// Output is the BENCH_<n>.json document.
type Output struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Perfbench  []Workload        `json:"perfbench,omitempty"`
	Summary    map[string]string `json:"summary,omitempty"`
}

// parsePerfbench parses one "perfbench <workload> <json>" line, where json
// is perfbench's result document.
func parsePerfbench(line string) (Workload, bool, error) {
	rest, ok := strings.CutPrefix(line, "perfbench ")
	if !ok {
		return Workload{}, false, nil
	}
	name, doc, ok := strings.Cut(rest, " ")
	if !ok {
		return Workload{}, true, fmt.Errorf("perfbench line without a result: %q", line)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(doc), &res); err != nil {
		return Workload{}, true, fmt.Errorf("perfbench %s result: %w", name, err)
	}
	w := Workload{Name: name, Correct: res.Correct, Metrics: make(map[string]float64, len(res.Metrics))}
	for k, m := range res.Metrics {
		w.Metrics[k] = m.Value
	}
	return w, true, nil
}

// parseLine parses one "BenchmarkName-8  N  v unit  v unit ..." line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			vv := v
			b.BytesPerOp = &vv
		case "allocs/op":
			vv := v
			b.AllocsPerOp = &vv
		default:
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// summarize derives the headline comparison from the Fig7Sweep15 pair: host
// speedup, simulated speedup, and the page-table-walk reduction of the
// optimized pipeline over the paper-faithful legacy sweep.
func summarize(benches []Benchmark) map[string]string {
	var legacy, pipeline, traced, chaos *Benchmark
	for i := range benches {
		switch benches[i].Name {
		case "BenchmarkFig7Sweep15/legacy":
			legacy = &benches[i]
		case "BenchmarkFig7Sweep15/pipeline":
			pipeline = &benches[i]
		case "BenchmarkFig7Sweep15/traced":
			traced = &benches[i]
		case "BenchmarkFig7Sweep15/chaos":
			chaos = &benches[i]
		}
	}
	if legacy == nil || pipeline == nil {
		if pipeline != nil && (traced != nil || chaos != nil) {
			s := map[string]string{}
			if traced != nil {
				traceSummary(pipeline, traced, s)
			}
			if chaos != nil {
				chaosSummary(pipeline, chaos, s)
			}
			return s
		}
		return nil
	}
	s := map[string]string{
		"baseline":            "BenchmarkFig7Sweep15/legacy: sequential full-pairwise sweep, no translation cache, one LDR walk per module per VM",
		"optimized":           "BenchmarkFig7Sweep15/pipeline: digest pre-clustering, bounded parallel stages, per-handle TLB, per-sweep module-table snapshot",
		"legacy_ns_per_op":    fmt.Sprintf("%.0f", legacy.NsPerOp),
		"pipeline_ns_per_op":  fmt.Sprintf("%.0f", pipeline.NsPerOp),
		"host_speedup":        fmt.Sprintf("%.2fx", legacy.NsPerOp/pipeline.NsPerOp),
		"legacy_ptwalks_op":   fmt.Sprintf("%.0f", legacy.Metrics["ptwalks/op"]),
		"pipeline_ptwalks_op": fmt.Sprintf("%.0f", pipeline.Metrics["ptwalks/op"]),
	}
	if lw, pw := legacy.Metrics["ptwalks/op"], pipeline.Metrics["ptwalks/op"]; lw > 0 {
		s["ptwalks_reduction"] = fmt.Sprintf("%.1f%%", 100*(lw-pw)/lw)
	}
	if lm, pm := legacy.Metrics["sim-ms/op"], pipeline.Metrics["sim-ms/op"]; pm > 0 {
		s["sim_speedup"] = fmt.Sprintf("%.2fx", lm/pm)
	}
	if traced != nil {
		traceSummary(pipeline, traced, s)
	}
	if chaos != nil {
		chaosSummary(pipeline, chaos, s)
	}
	return s
}

// traceSummary adds the observability-overhead comparison: how much host
// wall time the deterministic tracer costs relative to the same pipelined
// sweep with tracing off. The acceptance budget is < 10%.
func traceSummary(pipeline, traced *Benchmark, s map[string]string) map[string]string {
	s["traced_ns_per_op"] = fmt.Sprintf("%.0f", traced.NsPerOp)
	if pipeline.NsPerOp > 0 {
		s["trace_overhead"] = fmt.Sprintf("%.1f%%", 100*(traced.NsPerOp-pipeline.NsPerOp)/pipeline.NsPerOp)
	}
	return s
}

// chaosSummary adds the robustness-overhead comparison: the host wall-time
// cost of the armed-but-inert fault plane and budget accounting relative to
// the bare pipeline sweep.
func chaosSummary(pipeline, chaos *Benchmark, s map[string]string) map[string]string {
	s["chaos_ns_per_op"] = fmt.Sprintf("%.0f", chaos.NsPerOp)
	if pipeline.NsPerOp > 0 {
		s["chaos_overhead"] = fmt.Sprintf("%.1f%%", 100*(chaos.NsPerOp-pipeline.NsPerOp)/pipeline.NsPerOp)
	}
	return s
}

// regressionThreshold is the relative worsening above which a delta row is
// flagged. Every compared metric is a cost (higher is worse) except the
// throughputs in higherIsBetter.
const regressionThreshold = 10.0

// higherIsBetter names the compared metrics that regress when they fall.
var higherIsBetter = map[string]bool{"checks_per_s": true}

// deltaRow is one benchmark metric compared against the baseline run.
type deltaRow struct {
	Bench     string
	Metric    string
	Old, New  float64
	Pct       float64
	Regressed bool
}

// findBaseline returns the BENCH_<n>.json in dir with the highest n,
// excluding the file the current run is being written to, or "" when there
// is no prior record to compare against.
func findBaseline(dir, exclude string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	best, bestName := -1, ""
	for _, e := range entries {
		name := e.Name()
		if name == exclude {
			continue
		}
		numeric, ok := strings.CutPrefix(name, "BENCH_")
		if !ok {
			continue
		}
		numeric, ok = strings.CutSuffix(numeric, ".json")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numeric)
		if err != nil {
			continue
		}
		if n > best {
			best, bestName = n, name
		}
	}
	if bestName == "" {
		return ""
	}
	return filepath.Join(dir, bestName)
}

// sameFile reports whether two paths name the same file, tolerating
// spelling differences ("./BENCH_9.json" vs "BENCH_9.json", symlinks). A
// stat failure falls back to lexical comparison — the guard must also catch
// an output file that does not exist yet.
func sameFile(a, b string) bool {
	if filepath.Clean(a) == filepath.Clean(b) {
		return true
	}
	ia, err := os.Stat(a)
	if err != nil {
		return false
	}
	ib, err := os.Stat(b)
	if err != nil {
		return false
	}
	return os.SameFile(ia, ib)
}

// compareRuns lines the current run up against the baseline, benchmark by
// benchmark, over the three tracked cost metrics, then perfbench workload by
// workload over every end-to-end metric. Benchmarks and workloads present on
// only one side are skipped — a new one has no trend yet.
func compareRuns(baseline, current *Output) []deltaRow {
	prior := make(map[string]*Benchmark, len(baseline.Benchmarks))
	for i := range baseline.Benchmarks {
		prior[baseline.Benchmarks[i].Name] = &baseline.Benchmarks[i]
	}
	metricOf := func(b *Benchmark, metric string) (float64, bool) {
		switch metric {
		case "ns/op":
			return b.NsPerOp, b.NsPerOp > 0
		case "B/op":
			if b.BytesPerOp == nil {
				return 0, false
			}
			return *b.BytesPerOp, true
		default:
			v, ok := b.Metrics[metric]
			return v, ok
		}
	}
	var rows []deltaRow
	addRow := func(bench, metric string, ov, nv float64) {
		pct := 100 * (nv - ov) / ov
		worse := pct
		if higherIsBetter[metric] {
			worse = -pct
		}
		rows = append(rows, deltaRow{
			Bench: bench, Metric: metric, Old: ov, New: nv,
			Pct: pct, Regressed: worse > regressionThreshold,
		})
	}
	for i := range current.Benchmarks {
		cur := &current.Benchmarks[i]
		old, ok := prior[cur.Name]
		if !ok {
			continue
		}
		for _, metric := range []string{"ns/op", "B/op", "sim-ms/op"} {
			ov, ook := metricOf(old, metric)
			nv, nok := metricOf(cur, metric)
			if !ook || !nok || ov == 0 {
				continue
			}
			addRow(cur.Name, metric, ov, nv)
		}
	}
	priorRuns := make(map[string]Workload, len(baseline.Perfbench))
	for _, w := range baseline.Perfbench {
		priorRuns[w.Name] = w
	}
	for _, w := range current.Perfbench {
		old, ok := priorRuns[w.Name]
		if !ok {
			continue
		}
		metrics := make([]string, 0, len(w.Metrics))
		for m := range w.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			if ov, ok := old.Metrics[m]; ok && ov != 0 {
				addRow("perfbench/"+w.Name, m, ov, w.Metrics[m])
			}
		}
	}
	return rows
}

func fmtMetric(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// writeDeltas renders the delta rows as a GitHub-flavored markdown table.
func writeDeltas(w io.Writer, baselinePath string, rows []deltaRow) {
	fmt.Fprintf(w, "### Benchmark deltas vs %s\n\n", filepath.Base(baselinePath))
	if len(rows) == 0 {
		fmt.Fprintln(w, "No overlapping benchmarks to compare.")
		return
	}
	fmt.Fprintln(w, "| benchmark | metric | baseline | current | delta |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	regressions := 0
	for _, r := range rows {
		flag := ""
		if r.Regressed {
			flag = " ⚠️"
			regressions++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %+.1f%%%s |\n",
			strings.TrimPrefix(r.Bench, "Benchmark"), r.Metric,
			fmtMetric(r.Old), fmtMetric(r.New), r.Pct, flag)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n**%d metric(s) regressed more than %.0f%%.**\n", regressions, regressionThreshold)
	} else {
		fmt.Fprintf(w, "\nNo regressions above %.0f%%.\n", regressionThreshold)
	}
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "auto",
		"prior BENCH_<n>.json to diff against: a path, 'auto' (newest in the output directory), or 'none'")
	md := flag.String("md", "", "append the delta table to this markdown file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	doc := Output{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.CPU = cpu
			continue
		}
		if w, ok, err := parsePerfbench(line); ok {
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			doc.Perfbench = append(doc.Perfbench, w)
			continue
		}
		if b, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading input:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	doc.Summary = summarize(doc.Benchmarks)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	basePath := *baseline
	if basePath == "auto" {
		dir := "."
		if *out != "" {
			dir = filepath.Dir(*out)
		}
		basePath = findBaseline(dir, filepath.Base(*out))
	} else if basePath == "none" {
		basePath = ""
	}
	if basePath == "" {
		return
	}
	// A run diffed against itself would always report "no regressions";
	// auto mode excludes the output file, but an explicit -baseline can
	// still name it.
	if *out != "" && sameFile(basePath, *out) {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s is the file being written; refusing to compare a run against itself\n", basePath)
		os.Exit(1)
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading baseline:", err)
		os.Exit(1)
	}
	var prior Output
	if err := json.Unmarshal(raw, &prior); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: parsing baseline:", err)
		os.Exit(1)
	}
	rows := compareRuns(&prior, &doc)
	writeDeltas(os.Stderr, basePath, rows)
	if *md != "" {
		f, err := os.OpenFile(*md, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: opening markdown output:", err)
			os.Exit(1)
		}
		writeDeltas(f, basePath, rows)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: closing markdown output:", err)
			os.Exit(1)
		}
	}
}
