package uarch

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"unsafe"

	"braid/internal/bpred"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/workload"
)

// TestMispredictBitmapMatchesPredictor checks the precomputed branch
// outcomes against a live predictor replaying the trace in order, and
// against the mispredict counts of exact and sampled simulation, for Table
// 4's geometry, a small braidtune-lattice geometry and the perfect oracle.
func TestMispredictBitmapMatchesPredictor(t *testing.T) {
	table4 := OutOfOrderConfig(8)
	small := OutOfOrderConfig(8)
	small.PredEntries, small.PredHistory = 128, 16
	perfect := OutOfOrderConfig(8)
	perfect.PerfectBP = true
	geoms := []struct {
		name string
		cfg  Config
		live func() bpred.Predictor
	}{
		{"table4", table4, func() bpred.Predictor { return bpred.NewPerceptron(512, 64) }},
		{"p128h16", small, func() bpred.Predictor { return bpred.NewPerceptron(128, 16) }},
		{"perfect", perfect, func() bpred.Predictor { return bpred.Perfect{} }},
	}
	sp := Sampling{Period: 2000, Detail: 300, Warmup: 100}
	for name, pair := range goldenPrograms(t) {
		for variant, p := range pair {
			for _, g := range geoms {
				tag := fmt.Sprintf("%s/%d/%s", name, variant, g.name)
				tr := replayOf(p).dynTrace()
				miss := replayOf(p).mispredicts(&g.cfg)
				if want := (len(tr) + 63) / 64; len(miss) != want {
					t.Fatalf("%s: bitmap has %d words for %d entries", tag, len(miss), len(tr))
				}
				live := g.live()
				for i, e := range tr {
					want := false
					if in := &p.Instrs[e.idx]; in.IsCondBranch() {
						addr := instrAddr(int(e.idx))
						want = live.Predict(addr, e.taken) != e.taken
						live.Train(addr, e.taken)
					}
					if got := mispredicted(miss, i); got != want {
						t.Fatalf("%s: trace position %d: bitmap says mispredicted=%v, live predictor %v", tag, i, got, want)
					}
				}
				pop := uint64(0)
				for _, w := range miss {
					pop += uint64(bits.OnesCount64(w))
				}
				if g.cfg.PerfectBP && pop != 0 {
					t.Errorf("%s: perfect predictor has %d mispredicts", tag, pop)
				}
				exact, err := Simulate(p, g.cfg)
				if err != nil {
					t.Fatalf("%s exact: %v", tag, err)
				}
				st, est, err := SimulateSampled(context.Background(), p, g.cfg, sp)
				if err != nil {
					t.Fatalf("%s sampled: %v", tag, err)
				}
				if est.Exact {
					t.Fatalf("%s: expected a genuine sampled run", tag)
				}
				if exact.Mispredicts != pop || st.Mispredicts != pop {
					t.Errorf("%s: popcount %d, exact Mispredicts %d, sampled %d", tag, pop, exact.Mispredicts, st.Mispredicts)
				}
			}
		}
	}
}

// nonHalting is a one-instruction infinite loop.
func nonHalting() *isa.Program {
	instrs := []isa.Instruction{{Op: isa.OpBR}, {Op: isa.OpHALT}}
	instrs[0].SetBranchTarget(0, 0)
	return &isa.Program{Name: "spin", Instrs: instrs}
}

// TestReplayCacheConcurrent has goroutines request the meta, trace and
// bitmaps of shared and distinct programs at once (run it under -race):
// every part is built once and every caller gets the same backing array.
func TestReplayCacheConcurrent(t *testing.T) {
	defer func(c int) { traceCap = c }(traceCap)
	traceCap = 1 << 17 // reach the non-halting cap cheaply

	shared, _ := genWorkload(t, "gcc", 200)
	spin := nonHalting()
	table4 := OutOfOrderConfig(8)
	small := BraidConfig(4)
	small.PredEntries, small.PredHistory = 256, 32
	cfgs := []*Config{&table4, &small}

	const workers = 8
	type view struct {
		meta  *staticMeta
		trace *traceEntry
		miss  [2]*uint64
	}
	views := make([][3]view, workers) // shared, spin, distinct
	distinct := make([]*isa.Program, workers)
	var wg sync.WaitGroup
	for w := range workers {
		k, _ := workload.KernelByName("matmul") // a fresh program per call
		distinct[w] = k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range []*isa.Program{shared, spin, distinct[w]} {
				rp := replayOf(p)
				v := view{meta: unsafe.SliceData(rp.staticMeta()), trace: unsafe.SliceData(rp.dynTrace())}
				for j, cfg := range cfgs {
					v.miss[j] = unsafe.SliceData(rp.mispredicts(cfg))
				}
				views[w][i] = v
			}
		}()
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if views[w][0] != views[0][0] || views[w][1] != views[0][1] {
			t.Errorf("worker %d got a different copy of a shared program's replay state", w)
		}
		if views[w][2] == views[0][2] {
			t.Errorf("worker %d shares replay state with worker 0 for a distinct program", w)
		}
	}
	if rp := replayOf(spin); rp.dynTrace() != nil || rp.mispredicts(&table4) != nil || rp.staticMeta() == nil {
		t.Error("a non-halting program must have metadata but no trace and no bitmap")
	}
	for _, p := range append([]*isa.Program{shared}, distinct...) {
		tr := replayOf(p).dynTrace()
		if tr == nil || len(tr) != cap(tr) {
			t.Errorf("%s: trace len %d cap %d, want an exact-size trace", p.Name, len(tr), cap(tr))
		}
	}
	if views[0][0].miss[0] == views[0][0].miss[1] {
		t.Error("two predictor geometries share one bitmap")
	}
}

// TestProgramTraceChunks checks a trace spanning several build chunks entry
// by entry against the interpreter.
func TestProgramTraceChunks(t *testing.T) {
	p, _ := genWorkload(t, "gcc", 2500)
	tr := programTrace(p)
	if len(tr) <= 2*traceChunk || len(tr) != cap(tr) {
		t.Fatalf("trace len %d cap %d: want more than two chunks (%d) and len == cap", len(tr), cap(tr), 2*traceChunk)
	}
	im := interp.New(p)
	var info interp.StepInfo
	for i, e := range tr {
		if err := im.Step(&info); err != nil {
			t.Fatalf("interpreter stopped at %d of %d: %v", i, len(tr), err)
		}
		if want := (traceEntry{idx: int32(info.Index), taken: info.Taken, addr: info.Addr}); e != want {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
	}
	if err := im.Step(&info); err == nil {
		t.Fatalf("interpreter continues past the trace's %d entries", len(tr))
	}
}
