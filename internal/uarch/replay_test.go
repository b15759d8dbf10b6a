package uarch

import (
	"bytes"
	"context"
	"encoding/json"
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

// sharedImage is one program image as braidd receives it: the bytes, their
// hash, and a way to decode a fresh *isa.Program per request.
type sharedImage struct {
	img  []byte
	hash string
}

func newSharedImage(t *testing.T, profile string, iters int) sharedImage {
	t.Helper()
	prof, _ := workload.ProfileByName(profile)
	p, err := workload.Generate(prof, iters)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := isa.WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	return sharedImage{img: buf.Bytes(), hash: ImageHash(buf.Bytes())}
}

func (si sharedImage) decode(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.ReadImage(bytes.NewReader(si.img))
	if err != nil {
		t.Error(err)
	}
	return p
}

// sharedState reports whether canon is the resident program for h, with
// its pin count, and whether canon still has a replayCache slot.
func sharedState(h string, canon *isa.Program) (resident bool, pins int, slot bool) {
	sharedProgs.Lock()
	if s := sharedProgs.m[h]; s != nil && s.prog == canon {
		resident, pins = true, s.pins
	}
	sharedProgs.Unlock()
	replayCache.Lock()
	_, slot = replayCache.m[canon]
	replayCache.Unlock()
	return resident, pins, slot
}

// replaySize returns the replay bytes the table counts for h's program.
func replaySize(h string) int64 {
	sharedProgs.Lock()
	defer sharedProgs.Unlock()
	return sharedProgs.m[h].counted
}

func statsJSON(t *testing.T, st *Stats, err error) string {
	t.Helper()
	if err != nil {
		t.Error(err)
		return ""
	}
	data, _ := json.Marshal(st)
	return string(data)
}

// TestSharedReplayBudget: with a budget of about two images, pinning and
// releasing distinct images one after another keeps the table's replay
// bytes within the budget by evicting the least recently used idle images
// and their replayCache slots; an evicted image re-requested rebuilds and
// simulates to the same Stats bytes.
func TestSharedReplayBudget(t *testing.T) {
	defer func(b int64) { replayBudget = b }(replayBudget)
	cfg := OutOfOrderConfig(4)
	imgs := make([]sharedImage, 6)
	canon := make([]*isa.Program, len(imgs))
	first := make([]string, len(imgs))
	run := func(i int) (*isa.Program, string) {
		p, release := PinProgram(imgs[i].hash, imgs[i].decode(t))
		defer release()
		st, err := Simulate(p, cfg)
		return p, statsJSON(t, st, err)
	}
	for i := range imgs {
		imgs[i] = newSharedImage(t, "gcc", 30+i) // sizes grow slowly with i
		if i == 0 {
			canon[0], first[0] = run(0)
			replayBudget = replaySize(imgs[0].hash) * 5 / 2
			continue
		}
		canon[i], first[i] = run(i)
		if _, b := SharedReplay(); b > replayBudget {
			t.Errorf("after image %d: replay bytes %d above the budget %d", i, b, replayBudget)
		}
	}
	for i := range imgs {
		resident, pins, slot := sharedState(imgs[i].hash, canon[i])
		if want := i >= len(imgs)-2; resident != want || slot != want || pins != 0 {
			t.Errorf("image %d: resident %v, replayCache slot %v, pins %d; want the two newest resident, unpinned", i, resident, slot, pins)
		}
	}
	again, st := run(0)
	if again == canon[0] {
		t.Error("an evicted image came back with its old program")
	}
	if st != first[0] {
		t.Errorf("a rebuilt image simulates differently:\n first: %s\n again: %s", first[0], st)
	}
}

// TestSharedReplayConcurrentEviction (run it under -race): goroutines
// simulate overlapping images, exact and sampled under two predictor
// geometries, while a budget of about one image evicts constantly. A pinned
// program keeps its entry and replayCache slot for its whole simulation,
// every Stats equals a fresh simulation of an unshared copy, and eviction
// leaves no slot behind.
func TestSharedReplayConcurrentEviction(t *testing.T) {
	defer func(b int64) { replayBudget = b }(replayBudget)
	imgs := []sharedImage{newSharedImage(t, "gcc", 30), newSharedImage(t, "mcf", 40), newSharedImage(t, "art", 30)}
	small := InOrderConfig(2)
	small.PredEntries, small.PredHistory = 128, 16
	cases := []struct {
		cfg Config
		sp  Sampling
	}{
		{OutOfOrderConfig(4), Sampling{}},
		{small, Sampling{}},
		{OutOfOrderConfig(4), Sampling{Period: 1000, Detail: 200, Warmup: 100}},
	}
	sim := func(p *isa.Program, c int) string {
		st, _, err := SimulateSampled(context.Background(), p, cases[c].cfg, cases[c].sp)
		return statsJSON(t, st, err)
	}
	want := make([][]string, len(imgs))
	for i := range imgs {
		for c := range cases {
			want[i] = append(want[i], sim(imgs[i].decode(t), c))
		}
	}
	p, release := PinProgram(imgs[0].hash, imgs[0].decode(t))
	sim(p, 0)
	release()
	replayBudget = replaySize(imgs[0].hash) * 3 / 2

	var (
		mu     sync.Mutex
		canons = map[*isa.Program]string{} // every program PinProgram returned
		wg     sync.WaitGroup
	)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 6 {
				i, c := (g+k)%len(imgs), (g*7+k)%len(cases)
				h := imgs[i].hash
				p, release := PinProgram(h, imgs[i].decode(t))
				rp := replayOf(p)
				got := sim(p, c)
				if resident, pins, slot := sharedState(h, p); !resident || pins < 1 || !slot || replayOf(p) != rp {
					t.Errorf("image %d: a pinned program lost its entry mid-simulation", i)
				}
				release()
				if got != want[i][c] {
					t.Errorf("image %d case %d: shared replay changed the Stats:\n got: %s\nwant: %s", i, c, got, want[i][c])
				}
				mu.Lock()
				canons[p] = h
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if _, b := SharedReplay(); b > replayBudget {
		t.Errorf("idle replay bytes %d above the budget %d", b, replayBudget)
	}
	if len(canons) <= len(imgs) {
		t.Errorf("%d programs for %d images: the budget never evicted", len(canons), len(imgs))
	}
	for p, h := range canons {
		resident, pins, slot := sharedState(h, p)
		if pins != 0 || slot != resident {
			t.Errorf("%s: resident %v with %d pins, replayCache slot %v: want unpinned, slot only while resident", p.Name, resident, pins, slot)
		}
	}
}
