package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"modchecker"
)

// tinyVMs shrinks the fleet workloads for the self-test; the paper's
// 15-VM pool is already small.
var tinyVMs = map[string]int{"fleet300_cached_churn": 60, "fleet100k_lean": 200}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(js, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{
		workload: workload, seed: seed, trace: traced,
		vms: tinyVMs[workload], minSweeps: 3,
		spans: filepath.Join(t.TempDir(), "spans.json"),
	}, &out)
	if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: err=%v result=%+v\n%s", workload, seed, traced, err, res, out.String())
	}
	return res, out.String()
}

// printed maps each metric line of a run's output to its value and unit.
func printed(out string) map[string]metric {
	got := map[string]metric{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || f[0] == "#" {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			got[f[0]] = metric{Value: v, Unit: f[2]}
		}
	}
	return got
}

func noteField(out, key string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == key {
			return f[2]
		}
	}
	return ""
}

// TestSpecMatchesWorkloads keeps BENCHMARK.json and the command in step.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
}

// TestWorkloadsTiny runs every workload at a tiny scale, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed with
// its unit, and that every verdict was right.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, out := tinyRun(t, name, 7, traced)
				lines := printed(out)
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: result has %+v, want unit %s", m.Name, got, m.Unit)
					}
					if line, ok := lines[m.Name]; !ok || line.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v, want unit %s", m.Name, line, m.Unit)
					}
				}
				if !traced {
					if fr := noteField(out, "fail_ratio"); fr != "0" {
						t.Errorf("fail_ratio = %q, want 0", fr)
					}
				}
			})
		}
	}
}

// TestReportFingerprintRepeats checks that one seed renders the same
// report bytes twice.
func TestReportFingerprintRepeats(t *testing.T) {
	for _, name := range []string{"paper15", "fleet300_cached_churn"} {
		_, a := tinyRun(t, name, 11, false)
		_, b := tinyRun(t, name, 11, false)
		fa, fb := noteField(a, "report_sha256"), noteField(b, "report_sha256")
		if len(fa) != 64 || fa != fb {
			t.Errorf("%s: report_sha256 %q then %q", name, fa, fb)
		}
	}
}

// TestStripTiming checks that the fingerprint ignores the simulated-clock
// fields and nothing else.
func TestStripTiming(t *testing.T) {
	sum := func(r modchecker.SweepReport) [32]byte {
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return stripTiming(b.Bytes())
	}
	base := modchecker.SweepReport{Sweep: 3, ModulesChecked: 7, VMs: 15}
	timed := base
	timed.Simulated = time.Second
	timed.Timing.Fetch = time.Millisecond
	alerted := base
	alerted.Alerts = []modchecker.Alert{{Module: "hal.dll", VM: "Dom7", Verdict: modchecker.VerdictAltered}}
	if sum(base) != sum(timed) {
		t.Error("fingerprint changed with the simulated time")
	}
	if sum(base) == sum(alerted) {
		t.Error("fingerprint ignored an alert")
	}
}

// TestSeedChangesChurnNotCorrectness checks that another seed draws other
// VMs to churn, and that its sweeps are still all right.
func TestSeedChangesChurnNotCorrectness(t *testing.T) {
	w := workloads["fleet300_cached_churn"]
	draws := func(seed int64) string {
		e, err := setUp(w, seed, tinyVMs[w.name])
		if err != nil {
			t.Fatal(err)
		}
		var d []string
		for i := 0; i < 3; i++ {
			d = append(d, e.draw()...)
		}
		return strings.Join(d, ",")
	}
	if a, b := draws(1), draws(2); a == b {
		t.Fatalf("seeds 1 and 2 drew the same churn: %s", a)
	}
	tinyRun(t, w.name, 2, false)
}
