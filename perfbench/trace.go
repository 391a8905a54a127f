package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"modchecker"
	"modchecker/internal/cas"
	"modchecker/internal/core"
	"modchecker/internal/mm"
)

// span is one timed call into a layer. Spans of one sweep share Sweep;
// Parent is the ID of the span that caused it (0 for the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Sweep   int    `json:"sweep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Calls is how many calls the span covers (batched cheap calls);
	// Bytes is the data the calls processed.
	Calls int   `json:"calls"`
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	origin time.Time
	sweep  int
	spans  []span
	// sample draws the VMs the fine-grained replays visit; it is separate
	// from the churn draw so tracing never changes what the sweeps see.
	sample *rand.Rand
	// lookups is the store cas.lookup replays probe when the workload has
	// none of its own.
	lookups *modchecker.DigestStore
	// Algorithm 2 rewrite sites found by the rva replays, and the bytes of
	// the sections they scanned.
	sites      int
	sitesBytes int64
}

func newTracer(seed int64) *tracer {
	return &tracer{
		origin:  time.Now(),
		sample:  rand.New(rand.NewSource(seed ^ 0x5eed)),
		lookups: modchecker.NewDigestStore(0),
	}
}

// add records a finished span and returns its ID. A root span opens a new
// sweep.
func (t *tracer) add(name string, parent int, start, end time.Time, calls int, bytes int64) int {
	if parent == 0 {
		t.sweep++
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Sweep: t.sweep, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		Calls: calls, Bytes: bytes,
	})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	js, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

// perSweep sums the named spans' durations within each sweep, in ms.
func (t *tracer) perSweep(name string) []float64 {
	sums := make([]float64, t.sweep)
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Sweep-1] += float64(s.dur()) / 1e6
		}
	}
	return sums
}

// perCall returns each named span's duration per call, in µs, plus the
// totals of calls, bytes and time over all of them.
func (t *tracer) perCall(name string) (us []float64, calls int, bytes int64, total time.Duration) {
	for _, s := range t.spans {
		if s.Name == name && s.Calls > 0 {
			us = append(us, float64(s.dur())/1e3/float64(s.Calls))
			calls += s.Calls
			bytes += s.Bytes
			total += s.dur()
		}
	}
	return us, calls, bytes, total
}

// fleetSample bounds how many VMs the fine-grained replays visit per sweep
// on large pools; the engine replay always covers the whole pool.
const fleetSample = 16

// lookupRounds repeats the cas.lookup replay so one span covers enough
// probes to time.
const lookupRounds = 10

// replay re-drives each layer's public functions on the state the sweep
// just saw, before its churn is reverted. Every handle is freshly opened
// and nothing is charged to the hypervisor clock, so the scanner's own
// translation caches, epochs and simulated time are untouched; the
// traced-run guard checks that.
func (e *env) replay(tr *tracer, root int, drawn []string, want map[check]bool) error {
	cfg := core.Config{}
	for _, o := range e.opts {
		o(&cfg)
	}
	modules, err := e.replayEngine(tr, root, cfg, want)
	if err != nil {
		return err
	}
	return e.replayLayers(tr, root, cfg, modules, e.replaySample(tr, drawn))
}

// replayEngine opens a pool sweep over the whole pool with the scanner's
// configuration and checks every module through it; its verdicts must
// match the planted set. It returns the modules checked.
func (e *env) replayEngine(tr *tracer, root int, cfg core.Config, want map[check]bool) ([]string, error) {
	t0 := time.Now()
	targets, err := e.cloud.Targets()
	if err != nil {
		return nil, err
	}
	ps, err := core.NewChecker(cfg).NewPoolSweep(targets)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	tr.add("core.engine.open", root, t0, time.Now(), 1, 0)
	modules, err := ps.Modules()
	if err != nil {
		return nil, err
	}
	for _, m := range modules {
		t0 := time.Now()
		pr := ps.CheckModule(m)
		tr.add("core.engine.check_module", root, t0, time.Now(), 1, 0)
		if got, exp := flagged(pr), expectedFor(want, m); !equalStrings(got, exp) {
			return nil, fmt.Errorf("engine replay of %s flagged %v, want %v", m, got, exp)
		}
	}
	return modules, nil
}

// replayLayers times the searcher, parser, Algorithm 2 normalizer, content
// identity and digest-store lookups one call at a time on the sampled VMs.
// vms[0] is the reference the normalizer and the lookups compare against.
func (e *env) replayLayers(tr *tracer, root int, cfg core.Config, modules, vms []string) error {
	refMods := make(map[string]*core.ParsedModule, len(modules))
	refBase := make(map[string]uint32, len(modules))
	// The reference's copies back refMods until every VM is normalized.
	var refBufs [][]byte
	defer func() {
		for _, b := range refBufs {
			core.ReleaseModuleCopy(b)
		}
	}()
	toks := make([]cas.Token, len(vms))
	for i, vm := range vms {
		t, err := e.cloud.Target(vm)
		if err != nil {
			return err
		}
		toks[i] = token(t)
		s := core.NewSearcher(t.Handle, cfg.Strategy)
		t0 := time.Now()
		if _, err := s.ListModules(); err != nil {
			return fmt.Errorf("list %s: %w", vm, err)
		}
		tr.add("core.searcher.list", root, t0, time.Now(), 1, 0)
		for _, m := range modules {
			t0 := time.Now()
			info, buf, _, err := s.FetchModule(m)
			if err != nil {
				return fmt.Errorf("fetch %s@%s: %w", m, vm, err)
			}
			t1 := time.Now()
			tr.add("core.searcher.fetch", root, t0, t1, 1, int64(len(buf)))
			pm, _, err := core.ParseModule(vm, m, info.Base, buf)
			if err != nil {
				core.ReleaseModuleCopy(buf)
				return fmt.Errorf("parse %s@%s: %w", m, vm, err)
			}
			tr.add("core.parser.parse", root, t1, time.Now(), 1, int64(len(buf)))
			if i == 0 {
				refMods[m], refBase[m] = pm, info.Base
				refBufs = append(refBufs, buf)
				continue
			}
			for _, c := range pm.Components {
				rc := refMods[m].Component(c.Name)
				if !c.Normalize || rc == nil || !rc.Normalize {
					continue
				}
				t0 := time.Now()
				_, _, sites := core.NormalizePair(rc.Data, c.Data, refBase[m], info.Base)
				tr.add("core.rva.normalize", root, t0, time.Now(), 1, int64(len(rc.Data)+len(c.Data)))
				tr.sites += len(sites)
				tr.sitesBytes += int64(len(c.Data))
			}
			core.ReleaseModuleCopy(buf)
		}
	}

	mems := make([]*mm.PhysMemory, len(vms))
	for i, vm := range vms {
		mems[i] = e.cloud.Guest(vm).Phys()
	}
	t0 := time.Now()
	for _, m := range mems {
		m.ContentID()
	}
	tr.add("mm.content_id", root, t0, time.Now(), len(mems), 0)

	store := e.store
	if store == nil {
		store = tr.lookups
	}
	t0 = time.Now()
	for r := 0; r < lookupRounds; r++ {
		for _, own := range toks {
			for _, m := range modules {
				store.LookupDigest(m, toks[0], own)
			}
		}
	}
	tr.add("cas.lookup", root, t0, time.Now(), lookupRounds*len(toks)*len(modules), 0)
	return nil
}

// replaySample lists the VMs the fine-grained replays visit: the pool's
// first VM (the reference the rva replays normalize against), this sweep's
// churned VMs, and seeded others up to fleetSample. Small pools are
// visited whole.
func (e *env) replaySample(tr *tracer, drawn []string) []string {
	if len(e.names) <= fleetSample {
		return e.names
	}
	out := []string{e.names[0]}
	in := map[string]bool{e.names[0]: true}
	for _, vm := range drawn {
		if !in[vm] {
			in[vm] = true
			out = append(out, vm)
		}
	}
	for len(out) < fleetSample {
		vm := e.names[tr.sample.Intn(len(e.names))]
		if !in[vm] {
			in[vm] = true
			out = append(out, vm)
		}
	}
	return out
}

// token forms a target's content token the way the engine's digest cache
// does: its Identity and Epoch hooks, invalid without an identity.
func token(t core.Target) cas.Token {
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

// flagged lists the VMs a pool report did not find clean, sorted.
func flagged(pr *core.PoolReport) []string {
	out := append(append(append([]string(nil), pr.Flagged...), pr.Inconclusive...), pr.Errored...)
	sort.Strings(out)
	return out
}

// expectedFor lists the VMs whose copy of module must be flagged, sorted.
func expectedFor(want map[check]bool, module string) []string {
	var out []string
	for c := range want {
		if c.module == module {
			out = append(out, c.vm)
		}
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stageCPU reads a CPU profile and sums its CPU nanoseconds by the value
// of the "stage" pprof label the engine puts on its worker goroutines.
// It decodes just the parts of the profile.proto wire format it needs:
// Profile.sample (field 2) and Profile.string_table (field 6); within a
// Sample, value (field 2) and label (field 3); within a Label, key (1) and
// str (2).
func stageCPU(prof []byte) (map[string]int64, error) {
	out := map[string]int64{}
	if len(prof) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		values []int64
		key    []int64 // label keys and values, as string-table indices
		str    []int64
	}
	var samples []sample
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 6:
			strs = append(strs, string(b))
		case 2:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 2:
					if b == nil {
						s.values = append(s.values, int64(v))
						return nil
					}
					return eachVarint(b, func(v uint64) { s.values = append(s.values, int64(v)) })
				case 3:
					var key, str int64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.key, s.str = append(s.key, key), append(s.str, str)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		for i, k := range s.key {
			if k < int64(len(strs)) && s.str[i] < int64(len(strs)) && strs[k] == "stage" {
				out[strs[s.str[i]]] += s.values[len(s.values)-1]
			}
		}
	}
	return out, nil
}

var errWire = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errWire
		}
		msg = msg[n:]
		num := int(tag >> 3)
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errWire
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errWire
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errWire
			}
			msg = msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errWire
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return errWire
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errWire
		}
		b = b[n:]
		fn(v)
	}
	return nil
}
