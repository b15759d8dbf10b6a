package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"braid/internal/uarch"
)

// faultyCfg arms the braid machine's test-only injector so the paranoid
// checker will panic mid-simulation.
func faultyCfg() uarch.Config {
	cfg := uarch.BraidConfig(8)
	cfg.Paranoid = true
	cfg.Inject = &uarch.FaultPlan{Kind: uarch.FaultBusyBit, AtCycle: 10}
	return cfg
}

// TestWorkerPoolSurvivesFault is the tentpole guarantee: one benchmark's
// simulator fault is contained — the other points finish with bit-identical
// IPCs at any worker count, the faulty point is omitted from the result map,
// the failure is recorded, and a crash artifact lands in the crash directory.
func TestWorkerPoolSurvivesFault(t *testing.T) {
	w := testSuite(t)
	clean := uarch.BraidConfig(8)
	var pts []Point
	for _, b := range w.Benches[:4] {
		pts = append(pts, Point{b, true, clean})
	}
	faulty := Point{w.Benches[0], true, faultyCfg()}
	pts = append(pts, faulty)

	// Serial baseline over a fresh cache, clean points only.
	serial := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	want := map[Point]float64{}
	for _, pt := range pts[:4] {
		v, err := serial.IPC(pt.Bench, pt.Braided, pt.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[pt] = v
	}

	for _, jobs := range []int{1, 4, 8} {
		crash := t.TempDir()
		wj := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: jobs}
		wj.SetCrashDir(crash)
		got, err := wj.IPCAll(pts)
		if err != nil {
			t.Fatalf("j=%d: IPCAll aborted on a contained fault: %v", jobs, err)
		}
		if _, ok := got[faulty]; ok {
			t.Errorf("j=%d: faulty point present in results", jobs)
		}
		for pt, v := range want {
			g, ok := got[pt]
			if !ok {
				t.Errorf("j=%d: clean point %s missing", jobs, pt.Bench.Name)
				continue
			}
			if g != v {
				t.Errorf("j=%d: %s IPC %v != serial %v", jobs, pt.Bench.Name, g, v)
			}
		}
		fails := wj.Failures()
		if len(fails) != 1 {
			t.Fatalf("j=%d: %d failures recorded, want 1: %v", jobs, len(fails), fails)
		}
		var sf *uarch.SimFault
		if !errors.As(fails[0].Err, &sf) {
			t.Fatalf("j=%d: failure is %T, want *uarch.SimFault: %v", jobs, fails[0].Err, fails[0].Err)
		}
		if fails[0].Artifact == "" {
			t.Fatalf("j=%d: no crash artifact written", jobs)
		}
		if _, err := os.Stat(fails[0].Artifact); err != nil {
			t.Errorf("j=%d: artifact JSON missing: %v", jobs, err)
		}
		brd := fails[0].Artifact[:len(fails[0].Artifact)-len(".json")] + ".brd"
		if _, err := os.Stat(brd); err != nil {
			t.Errorf("j=%d: artifact program image missing: %v", jobs, err)
		}
	}
}

// TestCrashArtifactRoundTrip: the repro pair (program image + config JSON)
// reloads into the exact program and a replayable configuration — paranoid
// forced on, the process-local injector stripped.
func TestCrashArtifactRoundTrip(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	crash := t.TempDir()
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	ws.SetCrashDir(crash)
	_, err := ws.IPC(b, true, faultyCfg())
	if err == nil {
		t.Fatal("injected fault did not surface")
	}
	fails := ws.Failures()
	if len(fails) != 1 || fails[0].Artifact == "" {
		t.Fatalf("no artifact recorded: %v", fails)
	}

	art, p, err := ReadCrashArtifact(fails[0].Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if art.Bench != b.Name || !art.Braided {
		t.Errorf("artifact names %s braided=%v, want %s braided=true", art.Bench, art.Braided, b.Name)
	}
	if art.Panic == "" || art.Cycle < 10 {
		t.Errorf("artifact missing fault detail: cycle=%d panic=%q", art.Cycle, art.Panic)
	}
	if !art.Config.Paranoid {
		t.Error("artifact config must force Paranoid for the replay")
	}
	if art.Config.Inject != nil {
		t.Error("artifact config must not carry the process-local injector")
	}
	if len(p.Instrs) != len(b.Braided.Instrs) {
		t.Fatalf("program image round trip: %d instructions, want %d", len(p.Instrs), len(b.Braided.Instrs))
	}
	// The artifact's config is runnable as-is: the replay completes (the
	// corruption was injected, so a clean engine passes its own audit).
	if _, err := uarch.SimulateChecked(context.Background(), p, art.Config); err != nil {
		t.Fatalf("replaying artifact config: %v", err)
	}
	if filepath.Dir(art.Program) != crash {
		t.Errorf("program image %s not in crash dir %s", art.Program, crash)
	}
}

// TestTransientErrorsNotMemoized: a timed-out simulation must not poison its
// memo key — clearing the timeout and asking again reruns and succeeds.
func TestTransientErrorsNotMemoized(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := uarch.BraidConfig(8)
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	ws.SetTimeout(time.Nanosecond)
	_, err := ws.IPC(b, true, cfg)
	if !errors.Is(err, uarch.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	ws.SetTimeout(0)
	v, err := ws.IPC(b, true, cfg)
	if err != nil {
		t.Fatalf("timeout poisoned the memo key: %v", err)
	}
	if v <= 0 {
		t.Fatalf("retried IPC %v", v)
	}
	if runs := ws.SimRuns(); runs != 2 {
		t.Errorf("ran %d simulations, want 2 (timeout evicted, success memoized)", runs)
	}
	// The success IS memoized: a third ask is a cache hit.
	if _, err := ws.IPC(b, true, cfg); err != nil {
		t.Fatal(err)
	}
	if runs := ws.SimRuns(); runs != 2 {
		t.Errorf("successful result not memoized: %d runs", runs)
	}
}

// TestDeterministicFaultsStayMemoized: a simulator fault is deterministic, so
// re-asking the same point must replay the memoized error, not re-simulate.
func TestDeterministicFaultsStayMemoized(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := faultyCfg()
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	_, err1 := ws.IPC(b, true, cfg)
	_, err2 := ws.IPC(b, true, cfg)
	var sf *uarch.SimFault
	if !errors.As(err1, &sf) || !errors.As(err2, &sf) {
		t.Fatalf("want *SimFault twice, got %v / %v", err1, err2)
	}
	if runs := ws.SimRuns(); runs != 1 {
		t.Errorf("deterministic fault re-simulated: %d runs, want 1", runs)
	}
}

// TestCancellationAbortsBatch: whole-suite cancellation is NOT contained —
// IPCAll reports it so the caller can stop cleanly (and resume later).
func TestCancellationAbortsBatch(t *testing.T) {
	w := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 4}
	ws.SetContext(ctx)
	var pts []Point
	for _, b := range w.Benches[:4] {
		pts = append(pts, Point{b, true, uarch.BraidConfig(8)})
	}
	_, err := ws.IPCAll(pts)
	if !errors.Is(err, uarch.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestCheckpointResume: points simulated under -checkpoint reload in a fresh
// process-equivalent (a fresh Workloads over the same suite) bit-identically
// and without re-simulating. This is what makes kill -INT + -resume produce
// identical final output.
func TestCheckpointResume(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	var pts []Point
	for _, b := range w.Benches[:3] {
		pts = append(pts, Point{b, true, uarch.BraidConfig(8)}, Point{b, false, uarch.OutOfOrderConfig(8)})
	}

	first := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 4}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	want, err := first.IPCAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(pts) {
		t.Fatalf("baseline incomplete: %d/%d points", len(want), len(pts))
	}

	second := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 4}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer second.CloseCheckpoint()
	if restored != len(pts) {
		t.Fatalf("restored %d points, want %d", restored, len(pts))
	}
	got, err := second.IPCAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	for pt, v := range want {
		if got[pt] != v {
			t.Errorf("%s braided=%v: resumed IPC %v != original %v", pt.Bench.Name, pt.Braided, got[pt], v)
		}
	}
	if runs := second.SimRuns(); runs != 0 {
		t.Errorf("resume re-simulated %d points; each record must carry the exact point key", runs)
	}
}

// TestCheckpointTornTail: a crash mid-append leaves a torn final line; resume
// must keep every whole record and ignore the tear.
func TestCheckpointTornTail(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	b := w.Benches[0]

	first := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	if _, err := first.IPC(b, true, uarch.BraidConfig(8)); err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"bench":"gcc","braided":true,"ipc":1.2`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	second := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	defer second.CloseCheckpoint()
	if restored != 1 {
		t.Fatalf("restored %d records, want the 1 whole one", restored)
	}
	if _, err := second.IPC(b, true, uarch.BraidConfig(8)); err != nil {
		t.Fatal(err)
	}
	if runs := second.SimRuns(); runs != 0 {
		t.Errorf("whole record before the tear was not restored (%d runs)", runs)
	}
}

// TestCheckpointCorruptMiddleRejected: corruption anywhere but the final line
// is not a crash signature — resume must refuse it loudly.
func TestCheckpointCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")
	content := `{"bench":"gcc","braided":true,"ipc":1.2,"cfg":` + "\n" +
		`{"bench":"mcf","braided":false,"ipc":0.9,"cfg":{}}` + "\n"
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ws := &Workloads{memo: map[string]*memoCell{}, jobs: 1}
	if _, err := ws.OpenCheckpoint(ckpt, true); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

// TestFaultyPointsNotCheckpointed: injected-fault configs are process-local;
// even a (hypothetically) successful injected run must not be persisted.
func TestFaultyPointsNotCheckpointed(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	if _, err := ws.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	ws.IPC(w.Benches[0], true, faultyCfg())
	ws.CloseCheckpoint()
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("faulty point leaked into the checkpoint: %q", data)
	}
}

// TestCheckpointDoubleResumeLastWins: a second run opened on the same
// checkpoint without resuming re-simulates its points and appends keys the
// file already holds. Reload must deduplicate repeated keys with
// last-write-wins, counting unique keys — not lines — as restored.
func TestCheckpointDoubleResumeLastWins(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := uarch.BraidConfig(8)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")

	first := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	want, err := first.IPC(b, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Second process, not resuming: the point simulates again and the file
	// gains a duplicate line for the key.
	second := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	if restored, err := second.OpenCheckpoint(ckpt, false); err != nil || restored != 0 {
		t.Fatalf("fresh open: restored=%d err=%v, want 0, nil", restored, err)
	}
	if _, err := second.IPC(b, true, cfg); err != nil {
		t.Fatal(err)
	}
	if runs := second.SimRuns(); runs != 1 {
		t.Fatalf("fresh open ran %d simulations, want 1", runs)
	}
	if err := second.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if lines := len(bytes.Fields(data)); lines != 2 {
		t.Fatalf("checkpoint holds %d records, want the key twice", lines)
	}

	// Append a forged newest record with a distinguishable value: if reload
	// is last-write-wins, this is the value a third resume must serve.
	key, err := second.pointKey(b, true, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	forged := ckptRecord{Key: key, IPC: want + 1024}
	raw, err := json.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	third := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}
	restored, err := third.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer third.CloseCheckpoint()
	if restored != 1 {
		t.Fatalf("double resume restored %d, want 1 unique key", restored)
	}
	got, err := third.IPC(b, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want+1024 {
		t.Errorf("resume served %v; last record (%v) must win", got, want+1024)
	}
	if runs := third.SimRuns(); runs != 0 {
		t.Errorf("deduplicated resume still re-simulated %d points", runs)
	}
}
