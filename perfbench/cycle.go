package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"modchecker"
)

// sweepResult is what one closed-loop cycle observed.
type sweepResult struct {
	// op is the sweep op the operator waits for: Scanner.Sweep plus
	// SweepReport.WriteJSON.
	op                time.Duration
	sim               time.Duration
	timing            modchecker.SweepTiming
	work              delta
	alloc, gcCycles   uint64
	gcCPU, totalCPU   float64
	failed, attempted int
	reportBytes       int
	// fingerprint hashes the report with its timing fields stripped.
	fingerprint [sha256.Size]byte
	// cowFaults counts the copy-on-write faults the churn hooks took.
	cowFaults uint64
	// stageCPU is CPU ns per pprof stage label; traced cycles only.
	stageCPU map[string]int64
}

// cycle runs one closed-loop step: churn the drawn VMs, run and render one
// sweep, check every verdict, and revert. With a tracer it also profiles the
// sweep op, records spans and replays each layer on the sweep's state before
// the revert.
func (e *env) cycle(tr *tracer) (sweepResult, error) {
	var r sweepResult
	drawn := e.draw()
	cow0 := e.cowFaults(drawn)
	if err := e.churn(drawn); err != nil {
		return r, fmt.Errorf("churn: %w", err)
	}
	r.cowFaults = e.cowFaults(drawn) - cow0

	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, err
		}
	}
	c0, rt0 := e.counters(), e.runtimeStats()
	t0 := time.Now()
	rep, sweepErr := e.scanner.Sweep()
	t1 := time.Now()
	e.buf.Reset()
	if sweepErr == nil {
		sweepErr = rep.WriteJSON(&e.buf)
	}
	t2 := time.Now()
	rt1, c1 := e.runtimeStats(), e.counters()
	if tr != nil {
		pprof.StopCPUProfile()
		stages, err := stageCPU(prof.Bytes())
		if err != nil {
			return r, fmt.Errorf("reading CPU profile: %w", err)
		}
		r.stageCPU = stages
	}

	r.op = t2.Sub(t0)
	r.work = c1.sub(c0)
	r.alloc, r.gcCycles = rt1.alloc-rt0.alloc, rt1.gcCycles-rt0.gcCycles
	r.gcCPU, r.totalCPU = rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU
	want := e.expected(drawn)
	if sweepErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep failed:", sweepErr)
		rep = nil
	} else {
		r.sim, r.timing, r.reportBytes = rep.Simulated, rep.Timing, e.buf.Len()
		r.fingerprint = stripTiming(e.buf.Bytes())
	}
	r.failed, r.attempted = e.verify(rep, want)

	if tr != nil && rep != nil {
		root := tr.add("scanner.sweep", 0, t0, t1, 1, 0)
		tr.add("report.render", root, t1, t2, 1, int64(r.reportBytes))
		if err := e.replay(tr, root, drawn, want); err != nil {
			return r, fmt.Errorf("sweep %d replay: %w", rep.Sweep, err)
		}
	}
	if err := e.revert(drawn); err != nil {
		return r, fmt.Errorf("revert: %w", err)
	}
	return r, nil
}

// cowFaults sums the copy-on-write faults of the named VMs' memories.
func (e *env) cowFaults(vms []string) uint64 {
	var n uint64
	for _, vm := range vms {
		n += e.cloud.Guest(vm).Phys().CowFaults()
	}
	return n
}

// stripTiming hashes an indented sweep report without its simulated-clock
// fields (the top-level "simulated_ms" line and the "timing" object), so
// the digest covers verdicts, coverage and health only.
func stripTiming(js []byte) [sha256.Size]byte {
	h := sha256.New()
	inTiming := false
	for len(js) > 0 {
		line := js
		if i := bytes.IndexByte(js, '\n'); i >= 0 {
			line, js = js[:i+1], js[i+1:]
		} else {
			js = nil
		}
		switch {
		case inTiming:
			inTiming = !bytes.HasPrefix(line, []byte("  }"))
		case bytes.HasPrefix(line, []byte(`  "timing": {`)):
			inTiming = true
		case bytes.HasPrefix(line, []byte(`  "simulated_ms":`)):
		default:
			h.Write(line)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
