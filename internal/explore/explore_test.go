package explore

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"braid/internal/experiments"
	"braid/internal/uarch"
)

// The test suite: a small mixed workload set at a small calibration target,
// loaded once and shared (the memo cache makes repeat searches nearly free).
const testDyn = 8000

var testBenchNames = []string{"gcc", "mcf", "gzip", "swim"}

var (
	suiteOnce sync.Once
	suiteW    *experiments.Workloads
	suiteErr  error
)

func testSuite(t *testing.T) (*experiments.Workloads, []*experiments.Bench) {
	t.Helper()
	suiteOnce.Do(func() {
		suiteW, suiteErr = experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	benches, err := SelectBenches(suiteW, testBenchNames)
	if err != nil {
		t.Fatal(err)
	}
	return suiteW, benches
}

func searchOpts(seed int64) Options {
	return Options{Seed: seed, Pop: 16, Budget: 200}
}

// TestSearchRediscoversThePaper is the acceptance test: from a random seed
// population, the front must contain a braid-style machine within 10% of the
// 8-wide out-of-order baseline's geomean IPC at no more than half (in fact
// a few percent) of its estimated complexity. That is the paper's Figure 13
// / §5.1 claim, recovered by search rather than by hand.
func TestSearchRediscoversThePaper(t *testing.T) {
	w, benches := testSuite(t)
	res, err := Search(context.Background(), w, benches, searchOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}

	// The reference machine, evaluated through the same pipeline.
	oooCfg := uarch.OutOfOrderConfig(8)
	logSum := 0.0
	for _, b := range benches {
		v, err := w.IPC(b, false, oooCfg)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(v)
	}
	oooIPC := math.Exp(logSum / float64(len(benches)))
	oooCost := uarch.EstimateComplexity(oooCfg).Total()

	found := false
	for _, e := range res.Front {
		cfg, err := e.Genome.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Core != uarch.CoreBraid {
			continue
		}
		if e.IPC >= 0.9*oooIPC && e.Cost <= 0.5*oooCost {
			found = true
			t.Logf("rediscovered: %s ipc %.3f (ooo/8 %.3f) cost %.0f (%.1f%% of ooo/8)",
				e.Genome, e.IPC, oooIPC, e.Cost, 100*e.Cost/oooCost)
		}
	}
	if !found {
		for _, e := range res.Front {
			t.Logf("front: %s feasible=%v ipc %.3f cost %.0f (gen %d)", e.Genome, e.Feasible, e.IPC, e.Cost, e.Gen)
		}
		t.Fatalf("no braid config within 10%% of ooo/8 IPC %.3f at <=50%% of cost %.0f", oooIPC, oooCost)
	}
}

// TestSearchDigestIndependentOfParallelism: the front digest must be
// byte-identical at any worker-pool width. Fresh Workloads per width so the
// memo cache cannot mask a scheduling dependence.
func TestSearchDigestIndependentOfParallelism(t *testing.T) {
	_, benches0 := testSuite(t) // ensure the shared suite exists for names
	_ = benches0
	digests := map[int]string{}
	for _, jobs := range []int{1, 8} {
		w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.SetJobs(jobs)
		benches, err := SelectBenches(w, testBenchNames)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), w, benches, searchOpts(3))
		if err != nil {
			t.Fatal(err)
		}
		digests[jobs] = res.Digest
	}
	if digests[1] != digests[8] {
		t.Fatalf("front digest differs across -j: j1 %s, j8 %s", digests[1], digests[8])
	}
}

// TestSearchResumeReproducesFront: interrupting a checkpointed search and
// resuming must converge to the identical front. The interruption is
// simulated by truncating the point checkpoint halfway — what a SIGKILL
// mid-search leaves behind — plus a torn half-line, which resume must drop.
// The resumed search replays from generation 0 on a fresh suite: every
// restored point must be a memo hit, so it simulates exactly the points the
// checkpoint lacks.
func TestSearchResumeReproducesFront(t *testing.T) {
	opt := searchOpts(5)
	dir := t.TempDir()
	search := func(path string, resume bool) (*Result, *experiments.Workloads, int) {
		t.Helper()
		w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
		if err != nil {
			t.Fatal(err)
		}
		benches, err := SelectBenches(w, testBenchNames)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := w.OpenCheckpoint(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), w, benches, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CloseCheckpoint(); err != nil {
			t.Fatal(err)
		}
		return res, w, restored
	}

	full := filepath.Join(dir, "full.jsonl")
	want, wFull, _ := search(full, false)
	if want.Generations < 3 {
		t.Fatalf("search finished in %d generations; test needs >= 3 to interrupt meaningfully", want.Generations)
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := len(lines) / 2
	if keep < 2 {
		t.Fatalf("checkpoint has %d lines", len(lines))
	}
	torn := append([]byte{}, bytes.Join(lines[:keep], nil)...)
	torn = append(torn, lines[keep][:len(lines[keep])/2]...)
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(interrupted, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, wResumed, restored := search(interrupted, true)
	if restored != keep {
		t.Fatalf("restored %d points, want %d (torn line dropped)", restored, keep)
	}
	if got.Digest != want.Digest {
		t.Fatalf("resumed front digest %s != uninterrupted %s", got.Digest, want.Digest)
	}
	if got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("resumed run: %d gens / %d evals, want %d / %d",
			got.Generations, got.Evaluations, want.Generations, want.Evaluations)
	}
	if n, full := wResumed.SimRuns(), wFull.SimRuns(); n != full-uint64(restored) {
		t.Errorf("resumed run simulated %d points; the full run simulated %d and %d were restored", n, full, restored)
	}
}

// TestInjectedFaultContainedAndExcluded: arming the fault injector on one
// evaluation must not abort the search — the genome comes back infeasible,
// is excluded from the front, and the containment shows up in Failures().
func TestInjectedFaultContainedAndExcluded(t *testing.T) {
	w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
	if err != nil {
		t.Fatal(err)
	}
	benches, err := SelectBenches(w, testBenchNames)
	if err != nil {
		t.Fatal(err)
	}
	opt := searchOpts(9)
	opt.InjectFaultAt = 3
	res, err := Search(context.Background(), w, benches, opt)
	if err != nil {
		t.Fatalf("search aborted on an injected fault: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(w.Failures()) == 0 {
		t.Fatal("no contained failure recorded for the injected fault")
	}
	for _, e := range res.Front {
		if !e.Feasible {
			t.Fatalf("infeasible evaluation on the front: %s", e.Genome)
		}
	}

	// The same seed without injection evaluates the same genomes; the
	// faulted one must be the only difference, and the search survives
	// either way.
	opt.InjectFaultAt = 0
	if _, err := Search(context.Background(), w, benches, opt); err != nil {
		t.Fatal(err)
	}
}

// TestSearchCancellation: canceling the context stops the search with an
// error wrapping the cause, leaving any checkpoint intact for resume.
func TestSearchCancellation(t *testing.T) {
	w, benches := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, w, benches, searchOpts(1)); err == nil {
		t.Fatal("canceled search returned no error")
	}
}
