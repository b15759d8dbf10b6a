package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"braid/internal/uarch"
)

// runExperiment runs one experiment on a fresh memo over w's suite, with a
// checkpoint at ckpt (resumed when resume is set), and returns its table.
func runExperiment(t *testing.T, w *Workloads, e Experiment, ckpt string, resume bool) (*Workloads, string) {
	t.Helper()
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 4}
	if _, err := ws.OpenCheckpoint(ckpt, resume); err != nil {
		t.Fatal(err)
	}
	defer ws.CloseCheckpoint()
	r, err := e.Run(ws)
	if err != nil {
		t.Fatal(err)
	}
	return ws, r.String()
}

// TestCheckpointStaleSuiteResimulates is the stale-resume regression: a
// checkpoint taken over a suite calibrated to one dynamic-instruction target
// must not be replayed into a suite calibrated to another. Bench names and
// configs are the same; the programs are not, so no point key matches, every
// point re-simulates, and the table equals a fresh run's.
func TestCheckpointStaleSuiteResimulates(t *testing.T) {
	small, err := LoadSuite(1000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := LoadSuite(2000)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := ByID("pipeline")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")

	first, stale := runExperiment(t, small, e, ckpt, false)
	fresh, want := runExperiment(t, large, e, filepath.Join(dir, "fresh.jsonl"), false)
	resumed, got := runExperiment(t, large, e, ckpt, true)

	if got != want {
		t.Errorf("resumed table differs from a fresh run:\n--- resumed\n%s--- fresh\n%s", got, want)
	}
	if got == stale {
		t.Error("resumed table is the stale suite's table")
	}
	if resumed.SimRuns() != fresh.SimRuns() || resumed.SimRuns() != first.SimRuns() {
		t.Errorf("resume ran %d simulations; a fresh run needs %d (the stale run made %d)",
			resumed.SimRuns(), fresh.SimRuns(), first.SimRuns())
	}
}

// TestCheckpointForeignModelNotReplayed: a record stamped with another
// uarch.ModelVersion is never served, even for the same program, config and
// geometry — it came from a different timing model.
func TestCheckpointForeignModelNotReplayed(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := uarch.BraidConfig(8)
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 1}

	model := ":m" + strconv.Itoa(uarch.ModelVersion)
	key, err := ws.pointKey(b, true, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(key, model) {
		t.Fatalf("point key %q does not end in the model version %q", key, model)
	}
	foreign := strings.TrimSuffix(key, model) + ":m" + strconv.Itoa(uarch.ModelVersion+1)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(ckpt, []byte(`{"key":"`+foreign+`","ipc":1024}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ws.OpenCheckpoint(ckpt, true); err != nil {
		t.Fatal(err)
	}
	defer ws.CloseCheckpoint()
	got, err := ws.IPC(b, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got == 1024 || ws.SimRuns() != 1 {
		t.Errorf("foreign-model record replayed: ipc %v after %d simulations", got, ws.SimRuns())
	}
}

// TestCheckpointOldFormatRefused: a checkpoint from before records carried
// a point key names its points by bench and config only, which cannot tell
// programs or models apart. Resume refuses it with an actionable message
// rather than silently ignoring or trusting it.
func TestCheckpointOldFormatRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	old := `{"bench":"gcc","braided":true,"ipc":1.2,"cfg":{}}` + "\n"
	if err := os.WriteFile(ckpt, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	ws := &Workloads{memo: map[string]*memoCell{}, jobs: 1}
	_, err := ws.OpenCheckpoint(ckpt, true)
	if !errors.Is(err, errOldCheckpoint) {
		t.Fatalf("old-format checkpoint: got %v, want %v", err, errOldCheckpoint)
	}
	if !strings.Contains(err.Error(), "delete it or run without -resume") {
		t.Errorf("error does not say how to proceed: %v", err)
	}
	// Without -resume the file is only appended to, never read.
	if _, err := ws.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatalf("fresh (non-resume) open refused: %v", err)
	}
	ws.CloseCheckpoint()
}

// TestCheckpointKeysDistinct: points that differ only in the binary
// (original or braided) or only in the json-excluded fault plan must still
// get distinct memo keys; an injected config must never alias its clean twin.
func TestCheckpointKeysDistinct(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	clean := uarch.BraidConfig(8)
	clean.Paranoid = true
	armed, armed2 := faultyCfg(), faultyCfg()
	if uarch.ConfigHash(&clean) != uarch.ConfigHash(&armed) {
		t.Fatal("test premise: the fault plan is json-excluded, so the config hashes match")
	}
	seen := map[string]string{}
	for _, pt := range []struct {
		name    string
		braided bool
		cfg     *uarch.Config
	}{{"original", false, &clean}, {"braided", true, &clean}, {"armed", true, &armed}, {"second plan", true, &armed2}} {
		key, err := w.pointKey(b, pt.braided, pt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if other, ok := seen[key]; ok {
			t.Errorf("%s and %s share the key %q", other, pt.name, key)
		}
		seen[key] = pt.name
	}
}

// TestCheckpointWriteErrorSurfaces: a checkpoint that cannot be written
// must not fail silently. /dev/full accepts the open and fails every write
// with ENOSPC; the sweep itself still completes, and CloseCheckpoint
// reports the error naming the file.
func TestCheckpointWriteErrorSurfaces(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s: %v", full, err)
	}
	w := testSuite(t)
	ws := &Workloads{Benches: w.Benches, memo: map[string]*memoCell{}, jobs: 2}
	if _, err := ws.OpenCheckpoint(full, false); err != nil {
		t.Fatal(err)
	}
	pts := []Point{{w.Benches[0], true, uarch.BraidConfig(8)}, {w.Benches[1], false, uarch.OutOfOrderConfig(8)}}
	got, err := ws.IPCAll(pts)
	if err != nil || len(got) != len(pts) {
		t.Fatalf("sweep over an unwritable checkpoint: %d of %d points, err %v", len(got), len(pts), err)
	}
	err = ws.CloseCheckpoint()
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), full) {
		t.Fatalf("CloseCheckpoint: got %v, want ENOSPC naming %s", err, full)
	}
	if err := ws.CloseCheckpoint(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
