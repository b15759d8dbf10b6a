package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Workload is one named traffic mix. Run performs one episode: it sets the
// system up once and measures a fixed amount of work.
type Workload interface {
	Run(ctx context.Context, e *Episode) error
}

// workloads are the benchmark's named workloads; README.md says why each
// one exists and which layer does most of its work.
var workloads = map[string]Workload{
	"sweep":   sweepSpec,
	"sampled": sampledSpec,
	"serve":   serveSpec,
}

// wantDigest is each workload's stats_digest: a hash over every simulated
// point's Stats, which depends on the simulator's model and not on the host,
// the seed or the traffic order. A change that alters the model on purpose
// must update it.
var wantDigest = map[string]string{
	"sweep":   "f8483f16fb289efb6fa81546654ad066a040497d1c3c3bf17401f8e081effdf1",
	"sampled": "60c6f342b5c2ea55832191c0df4572e71b3340ab7871ac7da7ad1120739d6cb8",
	"serve":   "1c3aaabf305e8f6ba7951565d17ac3c823b64e42e66b7f3792bbfc10895f16fc",
}

// instance is one set-up copy of a workload's system under test. measure
// runs one timed iteration; close releases it.
type instance interface {
	measure(ctx context.Context, e *Episode, tr *tracer) error
	close()
}

// Episode is one child process's share of a run. Every episode is a fresh
// process, so each pays the start-up costs (replay traces, warm cache
// prototypes, heap growth) that a user's braidbench or braidd process pays.
type Episode struct {
	Seed  int64  `json:"-"` // the run's workload seed
	Index int    `json:"-"` // the episode's position in the run
	Trace bool   `json:"-"`
	Dir   string `json:"-"` // scratch directory inside the checkout

	SetupS    float64   `json:"setup_s"`
	Wall      []float64 `json:"wall_s"`
	SimMIPS   []float64 `json:"sim_mips"`
	EffMIPS   []float64 `json:"effective_mips"`
	ReqPerS   []float64 `json:"requests_per_s"`
	LatMS     []float64 `json:"latency_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"stats_digest"`

	Layers         map[string]float64 `json:"layers,omitempty"` // traced episodes only
	ProfileSamples int                `json:"profile_samples,omitempty"`
}

// add records one timed iteration.
func (e *Episode) add(wall float64, detailed, retired, requests uint64, lat []time.Duration) {
	e.Wall = append(e.Wall, wall)
	e.SimMIPS = append(e.SimMIPS, float64(detailed)/wall/1e6)
	e.EffMIPS = append(e.EffMIPS, float64(retired)/wall/1e6)
	e.ReqPerS = append(e.ReqPerS, float64(requests)/wall)
	for _, d := range lat {
		e.LatMS = append(e.LatMS, float64(d.Nanoseconds())/1e6)
	}
}

// fail records one failed or wrong output.
func (e *Episode) fail(format string, args ...any) {
	e.Failed++
	if len(e.Errors) < 8 {
		e.Errors = append(e.Errors, fmt.Sprintf(format, args...))
	}
}

// noteDigest requires every iteration to produce the same digest.
func (e *Episode) noteDigest(d string) {
	switch {
	case e.Digest == "":
		e.Digest = d
	case e.Digest != d:
		e.fail("stats_digest changed between iterations: %.16s vs %.16s", e.Digest, d)
	}
}

// episode sets the workload up once, timed, and measures iters iterations,
// under a CPU profile when tracing.
func episode(ctx context.Context, e *Episode, iters int, setup func(context.Context) (instance, error)) error {
	t := time.Now()
	inst, err := setup(ctx)
	if err != nil {
		return err
	}
	e.SetupS = time.Since(t).Seconds()
	defer inst.close()

	var tr *tracer
	var prof bytes.Buffer
	if e.Trace {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	for i := 0; i < iters && err == nil; i++ {
		if tr != nil {
			tr.iters++
		}
		err = inst.measure(ctx, e, tr)
	}
	if tr != nil {
		pprof.StopCPUProfile()
		if err == nil {
			var shares map[string]float64
			if shares, e.ProfileSamples, err = stageShares(prof.Bytes()); err != nil {
				err = fmt.Errorf("folding cpu profile: %w", err)
			}
			for st, v := range shares {
				tr.set("uarch.stage."+st+"_share", v)
			}
			e.Layers = tr.values()
		}
	}
	e.PeakRSSMB = peakRSSMB()
	return err
}

// runEpisodes runs episodes of the workload as child processes until the
// time budget is spent: at least min of them, and no more once another of
// typical length would end past the budget.
func runEpisodes(ctx context.Context, name string, seed int64, next *int, budget float64, min int, trace bool) ([]*Episode, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var eps []*Episode
	var durs []float64
	for len(eps) < min || time.Since(start).Seconds()+median(durs)/2 <= budget {
		t := time.Now()
		ep, err := spawn(ctx, self, name, seed, *next, trace)
		if err != nil {
			return nil, err
		}
		*next++
		eps = append(eps, ep)
		durs = append(durs, time.Since(t).Seconds())
	}
	return eps, nil
}

// spawn runs one episode in a child process and reads its result line.
func spawn(ctx context.Context, self, name string, seed int64, index int, trace bool) (*Episode, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--episode", strconv.Itoa(index),
		"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--trace", tr)
	cmd.Stderr = os.Stderr
	// A child must not outlive a run that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("episode %d: %w", index, err)
	}
	ep := new(Episode)
	if err := json.Unmarshal(out, ep); err != nil {
		return nil, fmt.Errorf("episode %d: reading result: %w", index, err)
	}
	return ep, nil
}

// minEpisodes guarantees a run sets the workload up several times, so
// setup_s is a median.
const minEpisodes = 3

// measureRun runs a whole invocation: untraced episodes for the
// end-to-end metrics, or, when tracing, half the budget untraced and half
// traced for the per-layer breakdown and the tracing overhead.
func measureRun(ctx context.Context, name string, seed int64, seconds float64, trace bool) (Result, Report, error) {
	rep := Report{Workload: name, Seed: seed, HeldOutSeed: heldOutSeed, Seconds: int(seconds), Trace: trace}
	next := 0
	budget, min := seconds, minEpisodes
	if trace {
		budget, min = seconds/2, 1
	}
	plain, err := runEpisodes(ctx, name, seed, &next, budget, min, false)
	if err != nil {
		return Result{}, rep, err
	}
	var traced []*Episode
	if trace {
		if traced, err = runEpisodes(ctx, name, seed, &next, budget, 1, true); err != nil {
			return Result{}, rep, err
		}
	}

	res := tally(wantDigest[name], append(append([]*Episode(nil), plain...), traced...), &rep)
	// Each metric is taken per episode, then the median across episodes, so
	// one episode disturbed by another process on the host cannot move it.
	perEpisode := func(f func(ep *Episode) float64) float64 {
		var xs []float64
		for _, ep := range plain {
			xs = append(xs, f(ep))
		}
		return median(xs)
	}
	iterations, latencies := 0, 0
	for _, ep := range plain {
		iterations += len(ep.Wall)
		latencies += len(ep.LatMS)
	}
	rep.Samples = map[string]int{
		"episodes":   len(plain),
		"iterations": iterations,
		"latency":    latencies,
	}

	if !trace {
		v := map[string]float64{
			"setup_s":        perEpisode(func(ep *Episode) float64 { return ep.SetupS }),
			"wall_s":         perEpisode(func(ep *Episode) float64 { return median(ep.Wall) }),
			"sim_mips":       perEpisode(func(ep *Episode) float64 { return median(ep.SimMIPS) }),
			"effective_mips": perEpisode(func(ep *Episode) float64 { return median(ep.EffMIPS) }),
			"requests_per_s": perEpisode(func(ep *Episode) float64 { return median(ep.ReqPerS) }),
			"latency_p50_ms": perEpisode(func(ep *Episode) float64 { return quantile(ep.LatMS, 0.50) }),
			"latency_p99_ms": perEpisode(func(ep *Episode) float64 { return quantile(ep.LatMS, 0.99) }),
			"peak_rss_mb":    perEpisode(func(ep *Episode) float64 { return ep.PeakRSSMB }),
		}
		res.Metrics = render(endToEndMetrics, func(name string) float64 { return v[name] })
		return res, rep, nil
	}

	var tracedWall []float64
	samples := 0
	for _, ep := range traced {
		tracedWall = append(tracedWall, ep.Wall...)
		samples += ep.ProfileSamples
	}
	rep.Samples["traced_episodes"] = len(traced)
	rep.Samples["traced_iterations"] = len(tracedWall)
	rep.Samples["profile_uarch_samples"] = samples
	res.Metrics = render(layerMetrics, func(name string) float64 {
		switch name {
		case "trace.overhead_ratio":
			var wall []float64
			for _, ep := range plain {
				wall = append(wall, ep.Wall...)
			}
			return median(tracedWall) / median(wall)
		case "check.error_rate":
			return float64(res.Failed) / float64(max(res.Attempted, 1))
		}
		var xs []float64
		for _, ep := range traced {
			xs = append(xs, ep.Layers[name])
		}
		return mean(xs)
	})
	return res, rep, nil
}

// tally sums the episodes' outcomes and requires every episode's stats
// digest to be the workload's expected one, so a simulator that computes
// different (even if repeatable) Stats fails the run.
func tally(want string, eps []*Episode, rep *Report) Result {
	var res Result
	for i, ep := range eps {
		res.Attempted += ep.Attempted
		res.Failed += ep.Failed
		rep.Errors = append(rep.Errors, ep.Errors...)
		if rep.StatsDigest == "" {
			rep.StatsDigest = ep.Digest
		}
		if ep.Digest != want {
			res.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("episode %d: stats_digest %.16s, want %.16s; "+
				"a change that alters the model on purpose must update wantDigest", i, ep.Digest, want))
		}
	}
	rep.Errors = rep.Errors[:min(len(rep.Errors), 8)]
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// render names every metric of a list with its unit; a value that is not a
// number (a layer the workload does not exercise) reads 0.
func render(defs []MetricDef, value func(string) float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, m := range defs {
		v := value(m.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics around q.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
