// Command perfbench is the repository's end-to-end benchmark. It drives the
// public modchecker facade as a closed loop with one client: a single Dom0
// operator whose next sweep starts once the previous report is rendered
// and the between-sweep churn is applied. Every verdict of every sweep is
// checked against what the workload planted.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload paper15 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the same sweeps twice, untraced and then traced with per-layer
// replays, checks that both agree on simulated time and the program's work
// counters, and reports the per-layer metrics. Each metric is printed on
// its own line with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. A run that
// gets any verdict wrong exits non-zero. BENCHMARK.json at the root of the
// repository records the workloads and why each was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// vms overrides the workload's pool size (the self-test runs tiny
	// pools); minSweeps is the fewest timed sweeps a run makes.
	vms       int
	minSweeps int
	spans     string // where the traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is set.
type report struct {
	out io.Writer
	res result
}

func (r *report) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-32s %16.6f %-6s %s\n", name, v, unit, note)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// tailSweeps is how many sweeps must lie beyond the reported tail
// percentile; a run makes at least tailSweeps+1 timed sweeps.
const tailSweeps = 10

func main() {
	cfg := config{minSweeps: tailSweeps + 1}
	var traced int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed sweeps")
	fs.IntVar(&traced, "trace", 0, "1: traced run with per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "span output file (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traced == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	js, _ := json.Marshal(res)
	fmt.Println(string(js))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run executes one benchmark invocation, printing metric lines to out. A
// run with wrong verdicts or a failed guard returns a result whose Correct
// is false and whose metrics are empty.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{Metrics: map[string]metric{}},
			fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r := &report{out: out, res: result{Metrics: map[string]metric{}}}
	var err error
	if cfg.trace {
		err = tracedRun(cfg, w, r)
	} else {
		err = timedRun(cfg, w, r)
	}
	r.res.Correct = err == nil && r.res.Failed == 0 && r.res.Attempted > 0
	if err == nil && !r.res.Correct {
		err = errors.New("wrong verdicts")
	}
	if !r.res.Correct {
		r.res.Metrics = map[string]metric{}
	}
	return r.res, err
}
