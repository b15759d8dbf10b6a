// Command braidstat characterizes programs the way the paper's profiling
// tool does: dynamic value fanout and lifetime (§1) and the braid statistics
// of Tables 1-3.
//
// Usage:
//
//	braidstat -bench gcc            one generated benchmark
//	braidstat -kernel fig2          a built-in kernel
//	braidstat -suite                all 26 SPEC CPU2000 stand-ins
//	braidstat -suite -j 4           ... characterized 4 benchmarks at a time
//	braidstat -values -bench mcf    value fanout/lifetime only
//
// With -suite, -checkpoint appends each finished benchmark's report to a
// JSONL file; Ctrl-C stops the pool without printing a partial suite, and
// rerunning with -resume reloads the finished reports and only
// recharacterizes the rest, producing identical output.
//
// -ipc appends each benchmark's simulated IPC (8-wide out-of-order and
// braid) to its report; with -remote host1,host2 those simulations run on
// braidd backends through the internal/remote pool (-hedge duplicates
// stragglers, -remote-verify re-simulates a sample locally), producing
// byte-identical output to local execution. -complexity adds the two
// machines' hardware-cost totals (uarch.EstimateComplexity) beneath each
// ipc line, quantifying the §5.1 complexity claim next to the speed it buys.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"

	"braid/internal/braid"
	"braid/internal/cfg"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/jsonl"
	"braid/internal/remote"
	"braid/internal/uarch"
	"braid/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "generated benchmark name")
		kernel     = flag.String("kernel", "", "built-in kernel name")
		suite      = flag.Bool("suite", false, "characterize the whole suite")
		values     = flag.Bool("values", false, "value fanout/lifetime only")
		iters      = flag.Int("iters", 50, "benchmark loop iterations")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "benchmarks characterized in parallel (-suite)")
		checkpoint = flag.String("checkpoint", "", "append finished suite reports to this JSONL file")
		resume     = flag.Bool("resume", false, "reload finished reports from -checkpoint before running")
		ipc        = flag.Bool("ipc", false, "append simulated IPC (8-wide o-o-o and braid) to each report; ignored with -values")
		remoteList = flag.String("remote", "", "comma-separated braidd base URLs; -ipc simulations run on these backends")
		hedge      = flag.Bool("hedge", false, "hedge slow remote requests onto a second backend (needs -remote)")
		remoteVer  = flag.Int("remote-verify", 0, "re-simulate ~1 in N remote points locally: exact Stats must match byte for byte, sampled IPC within tolerance (needs -remote; 0: off)")
		probe      = flag.Duration("probe", 0, "background health-probe interval for the remote pool (needs -remote; 0: off)")
		sample     = flag.String("sample", "", "interval sampling geometry period:detail[:warmup] for -ipc simulations; empty runs exact")
		complexity = flag.Bool("complexity", false, "append each machine's hardware-cost estimate to the -ipc section (needs -ipc)")
		fallback   remote.FallbackPolicy
	)
	flag.Var(&fallback, "fallback", "when every backend attempt fails: 'local' simulates in-process, 'fail' reports the error (needs -remote)")
	flag.Parse()

	sampling, err := uarch.ParseSampling(*sample)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sim simFunc
	if *ipc && !*values {
		sim = func(p *isa.Program, cfg uarch.Config) (*uarch.Stats, *uarch.SampleEstimate, error) {
			return uarch.SimulateSampled(ctx, p, cfg, sampling)
		}
		if *remoteList != "" {
			pool, err := remote.Dial(ctx, remote.Options{
				Backends:    strings.Split(*remoteList, ","),
				Hedge:       *hedge,
				VerifyEvery: *remoteVer,
				Fallback:    fallback,
				Probe:       *probe,
			}, 0)
			if err != nil {
				fatal(err)
			}
			defer pool.Close()
			sim = func(p *isa.Program, cfg uarch.Config) (*uarch.Stats, *uarch.SampleEstimate, error) {
				return pool.SimulateSampled(ctx, p, cfg, sampling)
			}
			defer func() { fmt.Fprintf(os.Stderr, "braidstat: remote pool: %s\n", pool) }()
		}
	}

	if *complexity && (!*ipc || *values) {
		fatal(fmt.Errorf("-complexity needs -ipc (and is meaningless with -values)"))
	}

	switch {
	case *suite:
		characterizeSuite(ctx, *iters, *values, *jobs, *checkpoint, *resume, sim, sampling, *complexity)
	case *bench != "":
		prof, ok := workload.ProfileByName(*bench)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err := workload.Generate(prof, *iters)
		if err != nil {
			fatal(err)
		}
		characterize(p, *values, sim, *complexity)
	case *kernel != "":
		p, ok := workload.KernelByName(*kernel)
		if !ok {
			fatal(fmt.Errorf("unknown kernel %q", *kernel))
		}
		characterize(p, *values, sim, *complexity)
	default:
		fatal(fmt.Errorf("need -bench, -kernel, or -suite"))
	}
}

// simFunc executes one simulation for the -ipc report section: in-process by
// default, through the remote pool with -remote. Both are deterministic and
// return identical Stats, so reports are byte-identical either way. The
// estimate is non-nil exactly when -sample produced an interval-sampled
// result.
type simFunc func(p *isa.Program, cfg uarch.Config) (*uarch.Stats, *uarch.SampleEstimate, error)

// statRecord is one finished benchmark report in the -checkpoint JSONL. The
// key fields guard against resuming a checkpoint taken with different
// characterization parameters, which would silently mix reports. IPC guards
// the -ipc report section; records written without it resume only runs that
// also omit it (remote vs local does not matter — the section is identical).
// Sampling records the -sample geometry, so exact and sampled runs never
// resume each other's reports, and Model the uarch.ModelVersion, so reports
// from another timing model are recomputed.
type statRecord struct {
	Name       string `json:"name"`
	Iters      int    `json:"iters"`
	ValuesOnly bool   `json:"values_only"`
	IPC        bool   `json:"ipc,omitempty"`
	Sampling   string `json:"sampling,omitempty"`
	Complexity bool   `json:"complexity,omitempty"`
	Model      int    `json:"model"`
	Report     string `json:"report"`
}

// loadStatCheckpoint returns the reports already finished, keyed by benchmark
// name, skipping records whose parameters do not match. A torn final line —
// a crash mid-append — is ignored.
func loadStatCheckpoint(path string, iters int, valuesOnly, ipc bool, sampling string, complexity bool) (map[string]string, error) {
	data, err := os.ReadFile(path) // a missing file resumes nothing
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	done := map[string]string{}
	err = jsonl.Each(data, func(rec statRecord) error {
		if rec.Iters == iters && rec.ValuesOnly == valuesOnly && rec.IPC == ipc && rec.Sampling == sampling &&
			rec.Complexity == complexity && rec.Model == uarch.ModelVersion {
			done[rec.Name] = rec.Report
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("braidstat: corrupt checkpoint %s: %w", path, err)
	}
	return done, nil
}

// characterizeSuite runs every profile through a bounded worker pool and
// prints the reports in profile order, whatever order they finish in. A
// panic while characterizing one benchmark is contained to that benchmark;
// Ctrl-C stops workers from starting new benchmarks and exits without
// printing a partial suite.
func characterizeSuite(ctx context.Context, iters int, valuesOnly bool, jobs int, ckptPath string, resume bool, sim simFunc, sampling uarch.Sampling, complexity bool) {
	sampStr := ""
	if sampling.Enabled() {
		sampStr = sampling.String()
	}
	profs := workload.Profiles()
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(profs) {
		jobs = len(profs)
	}

	reports := make([]string, len(profs))
	errs := make([]error, len(profs))
	var ckpt *os.File
	var ckptMu sync.Mutex
	var ckptErr error // first write error; reported once the suite is printed
	if ckptPath != "" {
		if resume {
			done, err := loadStatCheckpoint(ckptPath, iters, valuesOnly, sim != nil, sampStr, complexity)
			if err != nil {
				fatal(err)
			}
			restored := 0
			for i, prof := range profs {
				if r, ok := done[prof.Name]; ok {
					reports[i] = r
					restored++
				}
			}
			fmt.Fprintf(os.Stderr, "braidstat: resumed %d finished reports from %s\n", restored, ckptPath)
		}
		f, err := os.OpenFile(ckptPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		ckpt = f
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without starting new work
				}
				p, err := workload.Generate(profs[i], iters)
				if err != nil {
					errs[i] = err
					continue
				}
				reports[i], errs[i] = reportChecked(p, valuesOnly, sim, complexity)
				if errs[i] == nil && ckpt != nil {
					rec := statRecord{Name: profs[i].Name, Iters: iters, ValuesOnly: valuesOnly, IPC: sim != nil, Sampling: sampStr, Complexity: complexity, Model: uarch.ModelVersion, Report: reports[i]}
					if data, err := json.Marshal(&rec); err == nil {
						ckptMu.Lock()
						if ckptErr == nil { // one write: a crash tears at most the last line
							_, ckptErr = ckpt.Write(append(data, '\n'))
						}
						ckptMu.Unlock()
					}
				}
			}
		}()
	}
	for i := range profs {
		if reports[i] != "" {
			continue // restored from the checkpoint
		}
		work <- i
	}
	close(work)
	wg.Wait()

	if ctx.Err() != nil {
		msg := "braidstat: interrupted; no partial suite printed"
		if ckptPath != "" {
			msg += fmt.Sprintf(" (rerun with -checkpoint %s -resume to continue)", ckptPath)
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}
	for i, prof := range profs {
		if errs[i] != nil {
			fatal(fmt.Errorf("%s: %w", prof.Name, errs[i]))
		}
		fmt.Printf("--- %s ---\n%s", prof.Name, reports[i])
	}
	if ckpt != nil {
		if err := ckpt.Close(); ckptErr == nil {
			ckptErr = err
		}
		if ckptErr != nil {
			fatal(fmt.Errorf("checkpoint: %w", ckptErr))
		}
	}
}

func characterize(p *isa.Program, valuesOnly bool, sim simFunc, complexity bool) {
	s, err := report(p, valuesOnly, sim, complexity)
	if err != nil {
		fatal(err)
	}
	fmt.Print(s)
}

// reportChecked contains a panic in the characterization pipeline to the
// benchmark that triggered it, so one bad program cannot kill the pool.
func reportChecked(p *isa.Program, valuesOnly bool, sim simFunc, complexity bool) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			s = ""
			err = fmt.Errorf("characterization panic: %v\n%s", r, debug.Stack())
		}
	}()
	return report(p, valuesOnly, sim, complexity)
}

// report builds one program's characterization text (§1 values, control
// flow, Tables 1-3 braid statistics, and with -ipc the simulated IPC of the
// 8-wide out-of-order and braid machines).
func report(p *isa.Program, valuesOnly bool, sim simFunc, complexity bool) (string, error) {
	var b strings.Builder
	vs, err := interp.Characterize(p, 100_000_000)
	if err != nil {
		return "", err
	}
	b.WriteString(vs.String())
	if valuesOnly {
		return b.String(), nil
	}
	if g, err := cfg.Build(p); err == nil {
		loops := cfg.NaturalLoops(g)
		fmt.Fprintf(&b, "control flow: %d blocks, %d natural loops\n", len(g.Blocks), len(loops))
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		return "", err
	}
	ds := braid.NewDynamicStats(res)
	m := interp.New(res.Prog)
	if _, err := m.Run(100_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) }); err != nil {
		return "", err
	}
	st := ds.Stats()
	b.WriteString(st.String())
	if sim != nil {
		ooo, oooEst, err := sim(p, uarch.OutOfOrderConfig(8))
		if err != nil {
			return "", err
		}
		br, brEst, err := sim(res.Prog, uarch.BraidConfig(8))
		if err != nil {
			return "", err
		}
		// Exact runs keep the historical line byte-for-byte; sampled runs
		// annotate each estimate with its 95% confidence half-width.
		fmt.Fprintf(&b, "ipc: o-o-o/8w %.4f%s  braid/8w %.4f%s\n",
			ooo.IPC(), ciSuffix(oooEst), br.IPC(), ciSuffix(brEst))
		if complexity {
			co := uarch.EstimateComplexity(uarch.OutOfOrderConfig(8)).Total()
			cb := uarch.EstimateComplexity(uarch.BraidConfig(8)).Total()
			fmt.Fprintf(&b, "complexity: o-o-o/8w %.0f  braid/8w %.0f (%.1f%%)\n", co, cb, 100*cb/co)
		}
	}
	return b.String(), nil
}

// ciSuffix renders a sampled estimate's relative 95% confidence interval as
// "±x.x%". Exact results (nil estimate, or a sampled run that fell back to
// exact simulation) render nothing, keeping exact output byte-identical.
func ciSuffix(est *uarch.SampleEstimate) string {
	if est == nil || est.Exact {
		return ""
	}
	return fmt.Sprintf("±%.1f%%", est.IPCRelCI*100)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "braidstat: %v\n", err)
	os.Exit(1)
}
