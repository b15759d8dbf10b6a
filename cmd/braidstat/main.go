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
// With -suite, Ctrl-C stops the pool without printing a partial suite.
//
// -ipc appends each benchmark's simulated IPC (8-wide out-of-order and
// braid) to its report, simulated in-process (exact, or interval-sampled
// under -sample). -complexity adds the two machines' hardware-cost totals
// (uarch.EstimateComplexity) beneath each ipc line, quantifying the §5.1
// complexity claim next to the speed it buys.
package main

import (
	"context"
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
		ipc        = flag.Bool("ipc", false, "append simulated IPC (8-wide o-o-o and braid) to each report; ignored with -values")
		sample     = flag.String("sample", "", "interval sampling geometry period:detail[:warmup] for -ipc simulations; empty runs exact")
		complexity = flag.Bool("complexity", false, "append each machine's hardware-cost estimate to the -ipc section (needs -ipc)")
	)
	flag.Parse()

	sampling, err := uarch.ParseSampling(*sample)
	if err != nil {
		fatal(err)
	}
	sp := spec{valuesOnly: *values, ipc: *ipc && !*values, sampling: sampling, complexity: *complexity}
	if sp.complexity && !sp.ipc {
		fatal(fmt.Errorf("-complexity needs -ipc (and is meaningless with -values)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *suite:
		characterizeSuite(ctx, *iters, *jobs, sp)
	case *bench != "":
		prof, ok := workload.ProfileByName(*bench)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err := workload.Generate(prof, *iters)
		if err != nil {
			fatal(err)
		}
		characterize(ctx, p, sp)
	case *kernel != "":
		p, ok := workload.KernelByName(*kernel)
		if !ok {
			fatal(fmt.Errorf("unknown kernel %q", *kernel))
		}
		characterize(ctx, p, sp)
	default:
		fatal(fmt.Errorf("need -bench, -kernel, or -suite"))
	}
}

// spec selects the sections of a report.
type spec struct {
	valuesOnly bool           // value fanout/lifetime only
	ipc        bool           // append the simulated IPC section
	sampling   uarch.Sampling // geometry of the -ipc simulations (zero: exact)
	complexity bool           // append hardware-cost totals to the IPC section
}

// characterizeSuite runs every profile through a bounded worker pool and
// prints the reports in profile order, whatever order they finish in. A
// panic while characterizing one benchmark is contained to that benchmark;
// Ctrl-C stops workers from starting new benchmarks and exits without
// printing a partial suite.
func characterizeSuite(ctx context.Context, iters, jobs int, sp spec) {
	profs := workload.Profiles()
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(profs) {
		jobs = len(profs)
	}

	reports := make([]string, len(profs))
	errs := make([]error, len(profs))
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
				reports[i], errs[i] = reportChecked(ctx, p, sp)
			}
		}()
	}
	for i := range profs {
		work <- i
	}
	close(work)
	wg.Wait()

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "braidstat: interrupted; no partial suite printed")
		os.Exit(130)
	}
	for i, prof := range profs {
		if errs[i] != nil {
			fatal(fmt.Errorf("%s: %w", prof.Name, errs[i]))
		}
		fmt.Printf("--- %s ---\n%s", prof.Name, reports[i])
	}
}

func characterize(ctx context.Context, p *isa.Program, sp spec) {
	s, err := report(ctx, p, sp)
	if err != nil {
		fatal(err)
	}
	fmt.Print(s)
}

// reportChecked contains a panic in the characterization pipeline to the
// benchmark that triggered it, so one bad program cannot kill the pool.
func reportChecked(ctx context.Context, p *isa.Program, sp spec) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			s = ""
			err = fmt.Errorf("characterization panic: %v\n%s", r, debug.Stack())
		}
	}()
	return report(ctx, p, sp)
}

// report builds one program's characterization text (§1 values, control
// flow, Tables 1-3 braid statistics, and with -ipc the simulated IPC of the
// 8-wide out-of-order and braid machines).
func report(ctx context.Context, p *isa.Program, sp spec) (string, error) {
	var b strings.Builder
	vs, err := interp.Characterize(p, 100_000_000)
	if err != nil {
		return "", err
	}
	b.WriteString(vs.String())
	if sp.valuesOnly {
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
	if sp.ipc {
		ooo, oooEst, err := uarch.SimulateSampled(ctx, p, uarch.OutOfOrderConfig(8), sp.sampling)
		if err != nil {
			return "", err
		}
		br, brEst, err := uarch.SimulateSampled(ctx, res.Prog, uarch.BraidConfig(8), sp.sampling)
		if err != nil {
			return "", err
		}
		// Exact runs keep the historical line byte-for-byte; sampled runs
		// annotate each estimate with its 95% confidence half-width.
		fmt.Fprintf(&b, "ipc: o-o-o/8w %.4f%s  braid/8w %.4f%s\n",
			ooo.IPC(), ciSuffix(oooEst), br.IPC(), ciSuffix(brEst))
		if sp.complexity {
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
