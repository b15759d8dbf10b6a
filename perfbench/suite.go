package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/braid"
	"braid/internal/experiments"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// suiteWorkload runs paper experiments in-process through
// experiments.Workloads, as braidbench does. Its inputs are fixed by the
// paper's 26-benchmark suite; the seed does not change them.
type suiteWorkload struct {
	dyn        uint64                   // dynamic instructions per benchmark
	sampling   uarch.Sampling           // zero: exact timing
	exps       []experiments.Experiment // run in order, on one memo
	checkpoint bool                     // append every completed point to a JSONL checkpoint
}

// sweepSpec is the full paper evaluation at braidbench's defaults: all 16
// experiments, exact timing, -dyn 30000, -j nproc, a checkpoint file open.
var sweepSpec = suiteWorkload{dyn: 30000, exps: experiments.All(), checkpoint: true}

// sampledSpec is Figure 13 (four paradigms x widths 4/8/16) under the
// 100000:5000:5000 sampling geometry on million-instruction programs, where
// fast-forwarded instructions far outnumber detailed ones.
var sampledSpec = func() suiteWorkload {
	fig13, _ := experiments.ByID("fig13")
	return suiteWorkload{
		dyn:      500_000,
		sampling: uarch.Sampling{Period: 100_000, Detail: 5_000, Warmup: 5_000},
		exps:     []experiments.Experiment{fig13},
	}
}()

func (s suiteWorkload) Run(ctx context.Context, e *Episode) error {
	// braidbench's batch-tool GC setting, so host time matches what users see.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	return episode(ctx, e, 1, func(ctx context.Context) (instance, error) { return s.setup(ctx, e.Dir) })
}

type suiteInst struct {
	spec suiteWorkload
	w    *experiments.Workloads
	ckpt string
}

// setup prepares the suite (generate, braid and characterize every
// benchmark) and opens the checkpoint.
func (s suiteWorkload) setup(ctx context.Context, dir string) (instance, error) {
	w, err := experiments.LoadSuiteCtx(ctx, s.dyn, 0)
	if err != nil {
		return nil, err
	}
	w.SetContext(ctx)
	w.SetSampling(s.sampling)
	in := &suiteInst{spec: s, w: w}
	if s.checkpoint {
		in.ckpt = filepath.Join(dir, "sweep.ckpt.jsonl")
		if _, err := w.OpenCheckpoint(in.ckpt, false); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *suiteInst) close() { in.w.CloseCheckpoint() }

// measure runs the workload's experiments once; the memo is then full, so
// an episode measures one iteration.
func (in *suiteInst) measure(ctx context.Context, r *Episode, tr *tracer) error {
	w := in.w
	rec := &recorder{}
	w.SetRunner(rec)
	t0 := time.Now()
	var results []*experiments.Result
	for _, e := range in.spec.exps {
		res, err := e.Run(w)
		if err != nil {
			r.fail("%s: %v", e.ID, err)
			continue
		}
		results = append(results, res)
	}
	wall := time.Since(t0).Seconds()
	if err := w.CloseCheckpoint(); err != nil {
		r.fail("closing checkpoint: %v", err)
	}
	r.add(wall, w.SimDetailedInstrs(), w.SimInstrs(), w.SimRuns(), rec.latencies())

	r.Attempted += len(rec.pts)
	braided := map[*isa.Program]bool{}
	for _, b := range w.Benches {
		braided[b.Braided] = true
	}
	dyn := map[*isa.Program]uint64{}
	var pts []digestPoint
	for _, p := range rec.pts {
		if p.err != nil {
			r.fail("%s %s: %v", p.prog.Name, p.cfg.Core, p.err)
			continue
		}
		n, ok := dyn[p.prog]
		if !ok {
			if n, ok = interpSteps(p.prog); !ok {
				r.fail("%s: interpreter did not halt", p.prog.Name)
			}
			dyn[p.prog] = n
		}
		if p.st.Retired != n {
			r.fail("%s %s: retired %d, interpreter executed %d", p.prog.Name, p.cfg.Core, p.st.Retired, n)
		}
		pts = append(pts, digestPoint{key: pointKey(p.prog, braided[p.prog], p.cfg, in.spec.sampling), st: p.st})
	}
	r.noteDigest(statsDigest(pts))

	if tr != nil {
		in.traceLayers(ctx, r, tr, w, rec, results, braided)
	}
	return nil
}

// traceLayers fills the per-layer metrics of one traced iteration.
func (in *suiteInst) traceLayers(ctx context.Context, r *Episode, tr *tracer, w *experiments.Workloads, rec *recorder, results []*experiments.Result, braided map[*isa.Program]bool) {
	if err := prepLayers(tr, in.spec.dyn, w.Benches); err != nil {
		r.fail("%v", err)
	}
	reqs, err := census(ctx, in.spec)
	if err != nil {
		r.fail("census: %v", err)
	}
	tr.add("experiments.point_requests", float64(reqs))
	tr.add("experiments.sim_runs", float64(w.SimRuns()))
	tr.set("experiments.memo_hit_ratio", 1-tr.ratio("experiments.sim_runs", "experiments.point_requests"))
	if in.ckpt != "" {
		n, err := countLines(in.ckpt)
		if err != nil {
			r.fail("reading checkpoint: %v", err)
		}
		if uint64(n) != w.SimRuns() {
			r.fail("checkpoint holds %d records for %d simulations", n, w.SimRuns())
		}
		tr.add("experiments.checkpoint_records", float64(n))
	}
	tr.add("uarch.sampled.detailed_instrs", float64(w.SimDetailedInstrs()))
	tr.add("uarch.sampled.ffwd_instrs", float64(w.SimFFwdInstrs()))

	ipc := map[string][]float64{}
	for _, p := range rec.pts {
		if p.err != nil {
			continue
		}
		c := coreName(p.cfg.Core)
		detailed := p.st.Retired
		if p.est != nil {
			detailed = p.est.DetailedInstrs
			tr.add("uarch.sampled.intervals", float64(p.est.Intervals))
		}
		tr.add("uarch."+c+".host_s", p.dur.Seconds())
		tr.add("uarch."+c+".detailed", float64(detailed))
		tr.add("uarch."+c+".sims", 1)
		if p.cfg == canonical(p.cfg.Core) && braided[p.prog] == (p.cfg.Core == uarch.CoreBraid) {
			ipc[c] = append(ipc[c], p.st.IPC())
		}
	}
	for _, c := range cores {
		tr.set("uarch."+c+".mips", tr.ratio("uarch."+c+".detailed", "uarch."+c+".host_s")/1e6)
		tr.set("model."+c+".ipc", mean(ipc[c]))
	}
	var errs []float64
	for _, res := range results {
		for _, c := range res.Claims {
			if res.ID == "fig13" && c.Paper == 0.91 {
				tr.set("model.fig13_braid_ooo_ratio", c.Measured)
			}
			errs = append(errs, math.Abs(c.Measured-c.Paper)/math.Abs(c.Paper))
		}
	}
	tr.set("model.claims_mean_abs_rel_err", mean(errs))
}

// canonical is Table 4's 8-wide machine of a paradigm, the configuration
// model.<core>.ipc reports.
func canonical(k uarch.CoreKind) uarch.Config {
	switch k {
	case uarch.CoreInOrder:
		return uarch.InOrderConfig(8)
	case uarch.CoreDepSteer:
		return uarch.DepSteerConfig(8)
	case uarch.CoreBraid:
		return uarch.BraidConfig(8)
	}
	return uarch.OutOfOrderConfig(8)
}

func coreName(k uarch.CoreKind) string {
	switch k {
	case uarch.CoreInOrder:
		return "inorder"
	case uarch.CoreDepSteer:
		return "dep"
	case uarch.CoreBraid:
		return "braid"
	}
	return "ooo"
}

// recorder is the experiments.Runner the suite workloads install: it runs
// the same in-process simulator calls as the default runner and keeps each
// point's Stats and host time for the correctness gate and the trace.
type recorder struct {
	mu  sync.Mutex
	pts []simPoint
}

type simPoint struct {
	prog *isa.Program
	cfg  uarch.Config
	st   *uarch.Stats
	est  *uarch.SampleEstimate
	err  error
	dur  time.Duration
}

func (rc *recorder) Simulate(ctx context.Context, p *isa.Program, cfg uarch.Config) (*uarch.Stats, error) {
	t := time.Now()
	st, err := uarch.SimulateChecked(ctx, p, cfg)
	rc.note(simPoint{p, cfg, st, nil, err, time.Since(t)})
	return st, err
}

func (rc *recorder) SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	t := time.Now()
	st, est, err := uarch.SimulateSampled(ctx, p, cfg, sp)
	rc.note(simPoint{p, cfg, st, est, err, time.Since(t)})
	return st, est, err
}

func (rc *recorder) note(p simPoint) {
	if p.st != nil {
		// The simulator's Stats point into its Machine; keeping a copy
		// lets the Machine be collected.
		st := *p.st
		p.st = &st
	}
	rc.mu.Lock()
	rc.pts = append(rc.pts, p)
	rc.mu.Unlock()
}

func (rc *recorder) latencies() []time.Duration {
	out := make([]time.Duration, len(rc.pts))
	for i, p := range rc.pts {
		out[i] = p.dur
	}
	return out
}

// censusRunner fails every point instantly with a contained, transient
// error. Transient failures are never memoized, so with one worker every
// point request an experiment makes reaches the runner exactly once.
type censusRunner struct{ n *atomic.Uint64 }

func (c censusRunner) Simulate(context.Context, *isa.Program, uarch.Config) (*uarch.Stats, error) {
	c.n.Add(1)
	return nil, fmt.Errorf("census: %w", uarch.ErrTimeout)
}

func (c censusRunner) SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, _ uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	st, err := c.Simulate(ctx, p, cfg)
	return st, nil, err
}

// census counts the point requests the workload's experiments make of the
// memo. The count depends only on the suite's shape, so a minimum-size
// suite gives the same answer as the measured one.
func census(ctx context.Context, s suiteWorkload) (uint64, error) {
	w, err := experiments.LoadSuiteCtx(ctx, 1000, 1)
	if err != nil {
		return 0, err
	}
	w.SetSampling(s.sampling)
	var n atomic.Uint64
	w.SetRunner(censusRunner{&n})
	for _, e := range s.exps {
		if _, err := e.Run(w); err != nil {
			return 0, err
		}
	}
	return n.Load(), nil
}

// prepLayers times, per layer, the same public calls suite preparation
// makes for every benchmark, serially, and checks that they reproduce the
// prepared suite's dynamic instruction counts.
func prepLayers(tr *tracer, dyn uint64, benches []*experiments.Bench) error {
	profs := workload.Profiles()
	if len(profs) != len(benches) {
		return fmt.Errorf("suite has %d benchmarks, workload has %d profiles", len(benches), len(profs))
	}
	timed := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		tr.add(name, time.Since(t).Seconds())
		return err
	}
	for i, prof := range profs {
		const probeIters = 8
		var (
			probe, orig *isa.Program
			perIter     uint64
			res         *braid.Result
			steps       uint64
		)
		err := timed("workload.generate_s", func() (err error) {
			probe, err = workload.Generate(prof, probeIters)
			return err
		})
		if err == nil {
			err = timed("interp.calibrate_s", func() error {
				fs, err := interp.RunProgram(probe, 10_000_000)
				perIter = max(fs.Steps/probeIters, 1)
				return err
			})
		}
		if err == nil {
			iters := min(max(int(dyn/perIter), 4), isa.ImmMax)
			err = timed("workload.generate_s", func() (err error) {
				orig, err = workload.Generate(prof, iters)
				return err
			})
		}
		if err == nil {
			err = timed("braid.compile_s", func() (err error) {
				res, err = braid.Compile(orig, braid.Options{})
				return err
			})
		}
		if err == nil {
			err = timed("interp.dynstats_s", func() (err error) {
				ds := braid.NewDynamicStats(res)
				steps, err = interp.New(res.Prog).Run(50_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) })
				ds.Stats()
				return err
			})
		}
		if err == nil {
			err = timed("interp.characterize_s", func() error {
				_, err := interp.Characterize(orig, 50_000_000)
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", prof.Name, err)
		}
		if steps != benches[i].DynInstrs {
			return fmt.Errorf("%s: re-preparation executed %d instructions, suite has %d", prof.Name, steps, benches[i].DynInstrs)
		}
	}
	return nil
}

// interpSteps is the interpreter's dynamic instruction count for p.
func interpSteps(p *isa.Program) (uint64, bool) {
	n, err := interp.New(p).Run(1<<32, nil)
	return n, err == nil
}

// digestPoint is one simulated point in canonical form.
type digestPoint struct {
	key string
	st  *uarch.Stats
}

// pointKey names a point by content: program image hash, braided flag,
// full configuration and sampling geometry.
func pointKey(p *isa.Program, braided bool, cfg uarch.Config, sp uarch.Sampling) string {
	var img bytes.Buffer
	if err := isa.WriteImage(&img, p); err != nil {
		return p.Name + " " + err.Error()
	}
	sum := sha256.Sum256(img.Bytes())
	cfg.Inject = nil
	cj, _ := json.Marshal(&cfg) // Config is always marshalable
	return fmt.Sprintf("%s %x %v %s %s", p.Name, sum[:8], braided, cj, sp)
}

// statsDigest hashes every point's Stats JSON in canonical (key) order.
func statsDigest(pts []digestPoint) string {
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	h := sha256.New()
	for _, p := range pts {
		sj, _ := json.Marshal(p.st)
		fmt.Fprintf(h, "%s\t%s\n", p.key, sj)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
