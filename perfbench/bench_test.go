package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"braid/internal/experiments"
	"braid/internal/uarch"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q", name)
		}
	}
	for _, m := range append(append([]MetricDef(nil), endToEndMetrics...), layerMetrics...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if m := endToEndMetrics[0]; m != (MetricDef{"setup_s", "s", true}) {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower better", m)
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q (why %q)", w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			better := "higher"
			if m.Lower {
				better = "lower"
			}
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != better {
				t.Errorf("%s[%d] = %s %s %s, program has %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, better)
			}
			if bounded != (g.Bound != nil) || (g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" && m.Bound != nil && *m.Bound > *b.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// Minimum-size versions of the three workloads.
var (
	tinySweep   = suiteWorkload{dyn: 1000, exps: experiments.All(), checkpoint: true}
	tinySampled = func() suiteWorkload {
		fig13, _ := experiments.ByID("fig13")
		return suiteWorkload{dyn: 20000, sampling: uarch.Sampling{Period: 2000, Detail: 200, Warmup: 200}, exps: []experiments.Experiment{fig13}}
	}()
	tinyServe = serveWorkload{dyn: 1000, backends: 2, clients: 2, iters: 2}
)

func runTiny(t *testing.T, wl Workload, trace bool) *Episode {
	t.Helper()
	ep := &Episode{Seed: 7, Index: 1, Trace: trace, Dir: t.TempDir()}
	if err := wl.Run(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	if ep.Attempted == 0 || ep.Failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", ep.Attempted, ep.Failed, ep.Errors)
	}
	if ep.Digest == "" || len(ep.Wall) == 0 || ep.SetupS <= 0 || ep.PeakRSSMB <= 0 {
		t.Fatalf("incomplete episode: %+v", ep)
	}
	return ep
}

// TestMinimumRuns runs each workload at minimum size, once untraced and
// once traced: error rate 0 both times and the same stats digest.
func TestMinimumRuns(t *testing.T) {
	for _, c := range []struct {
		name    string
		wl      Workload
		nonzero []string // per-layer metrics the traced run must report
	}{
		{"sweep", tinySweep, []string{"experiments.point_requests", "experiments.checkpoint_records", "uarch.braid.sims", "uarch.stage.issue_share", "model.fig13_braid_ooo_ratio", "workload.generate_s"}},
		{"sampled", tinySampled, []string{"uarch.sampled.ffwd_instrs", "uarch.sampled.intervals", "uarch.stage.warm_share", "interp.characterize_s"}},
		{"serve", tinyServe, []string{"service.hit_ratio", "service.handler_p50_ms", "remote.attempts", "remote.bytes_sent", "net.transport_p50_ms", "uarch.ooo.sims", "model.ooo.ipc"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain := runTiny(t, c.wl, false)
			traced := runTiny(t, c.wl, true)
			if plain.Digest != traced.Digest {
				t.Errorf("stats_digest %s untraced, %s traced", plain.Digest, traced.Digest)
			}
			for _, name := range c.nonzero {
				if traced.Layers[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, traced.Layers[name])
				}
			}
			sum := 0.0
			for _, st := range stages {
				sum += traced.Layers["uarch.stage."+st+"_share"]
			}
			if traced.ProfileSamples > 0 && (sum < 0.999 || sum > 1.001) {
				t.Errorf("stage shares sum to %v", sum)
			}
		})
	}
}

// TestTallyRequiresExpectedDigest checks that a run whose stats digest is
// not the workload's expected one is not correct, even when every episode
// agrees with the others.
func TestTallyRequiresExpectedDigest(t *testing.T) {
	for name, want := range wantDigest {
		if len(want) != 64 {
			t.Errorf("wantDigest[%q] = %q, want a SHA-256 in hex", name, want)
		}
		ep := func(digest string) *Episode { return &Episode{Attempted: 10, Digest: digest} }
		if res := tally(want, []*Episode{ep(want), ep(want)}, &Report{}); !res.Correct || res.Failed != 0 {
			t.Errorf("%s: expected digest gave %+v", name, res)
		}
		changed := strings.Repeat("0", 64)
		var rep Report
		if res := tally(want, []*Episode{ep(changed), ep(changed)}, &rep); res.Correct || res.Failed != 2 {
			t.Errorf("%s: changed digest gave %+v", name, res)
		}
		if len(rep.Errors) == 0 || !strings.Contains(rep.Errors[0], "wantDigest") {
			t.Errorf("%s: changed digest reported %q", name, rep.Errors)
		}
	}
}

// TestCensusCountsPointRequests checks the census against a count made by
// hand: Figure 13 asks for one baseline plus twelve paradigm points per
// benchmark.
func TestCensusCountsPointRequests(t *testing.T) {
	n, err := census(context.Background(), tinySampled)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(26 * 13); n != want {
		t.Errorf("census counted %d point requests, want %d", n, want)
	}
}

// TestStageMapCoversProfile profiles minimum-size sweep and sampled runs
// and requires every simulator function above 1% of the profile to be in
// the stage map, so the fold cannot silently lose a hot function.
func TestStageMapCoversProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	defer pprof.StopCPUProfile()
	runTiny(t, suiteWorkload{dyn: 4000, exps: tinySweep.exps}, false)
	runTiny(t, tinySampled, false)
	pprof.StopCPUProfile()
	flat, err := flatUarch(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) == 0 {
		t.Fatal("profile has no simulator samples")
	}
	for fn, share := range flat {
		if _, known := stageMap[fn]; share > 0.01 && !known {
			t.Errorf("%s takes %.1f%% of the profile but is not in stageMap", fn, 100*share)
		}
	}
}

func TestFoldChargesInnermostStage(t *testing.T) {
	u := func(fn string) string { return uarchPkg + fn }
	samples := []profSample{
		{[]string{"braid/internal/mem.(*Hierarchy).AccessD", u("(*Machine).issueLoad"), u("(*Machine).step")}, 3},
		{[]string{u("(*dynRing).push"), u("(*Machine).dispatch"), u("(*Machine).step")}, 2},
		{[]string{u("(*Machine).renamedStage"), u("(*Machine).step")}, 4},
		{[]string{u("(*Machine).renamedHelper")}, 1},
		{[]string{"runtime.gcBgMarkWorker"}, 50},
	}
	shares, n := foldStacks(samples)
	if n != 4 {
		t.Errorf("%d simulator samples, want 4", n)
	}
	want := map[string]float64{"issue": 0.3, "dispatch": 0.2, "other": 0.5}
	for _, st := range stages {
		if got := shares[st]; got < want[st]-1e-9 || got > want[st]+1e-9 {
			t.Errorf("%s share %v, want %v", st, got, want[st])
		}
	}
}

// flatUarch is each simulator function's share of all profile samples as
// the leaf frame.
func flatUarch(data []byte) (map[string]float64, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	flat := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		if len(s.stack) > 0 && strings.HasPrefix(s.stack[0], uarchPkg) {
			flat[strings.TrimPrefix(s.stack[0], uarchPkg)] += s.value
		}
	}
	out := make(map[string]float64, len(flat))
	for fn, v := range flat {
		out[fn] = float64(v) / float64(total)
	}
	return out, nil
}
