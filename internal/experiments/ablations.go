package experiments

import (
	"fmt"

	"braid/internal/braid"
	"braid/internal/uarch"
)

// Ablations returns studies beyond the paper's figures that isolate the
// modeling and design choices DESIGN.md documents: dead-value release,
// busy-bit wakeup latency, compiler alias information, the internal register
// file size, an out-of-order BEU window (§5.1's "has been considered"), and
// §5.2's clustering proposal.
func Ablations() []Experiment {
	return []Experiment{
		{"abl-deadvalue", "ablation: dead-value early release of external RF entries", AblDeadValue},
		{"abl-wakeup", "ablation: busy-bit wakeup latency between BEUs", AblWakeup},
		{"abl-cluster", "ablation (§5.2): clustered BEUs with slow inter-cluster values", AblCluster},
		{"abl-window", "ablation (§5.1): an out-of-order window inside each BEU", AblWindowOoO},
		{"abl-internal", "ablation: internal register file size at compile time", AblInternal},
		{"abl-alias", "ablation: compiling and simulating without alias information", AblAlias},
		{"abl-exception", "ablation (§3.4): exception-rate sensitivity of the serialization mode", AblException},
	}
}

// AblationByID finds an ablation experiment.
func AblationByID(id string) (Experiment, bool) {
	for _, e := range Ablations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// AblDeadValue compares the braid machine with and without the dead-value
// early release that lets 8 external registers suffice.
func AblDeadValue(w *Workloads) (*Result, error) {
	r := newResult("abl-deadvalue", "braid IPC without dead-value release, normalized to with")
	retire := uarch.BraidConfig(8)
	retire.DeadValueRelease = false
	retire32 := retire
	retire32.RFEntries = 32
	series := []variant{{"retire-release", true, retire}, {"retire-release-rf32", true, retire32}}
	if err := sweep(w, r, braid8(), series); err != nil {
		return nil, err
	}
	r.AddClaim("8-entry RF needs dead-value release (off/on ratio)", 0.9, r.Average("retire-release", "all"))
	r.Notes = append(r.Notes,
		"Without compiler dead-value information an 8-entry external file must hold values to retirement; the second column shows 32 entries recovering most of the loss.")
	return r, nil
}

// AblWakeup sweeps the busy-bit synchronization latency across BEUs.
func AblWakeup(w *Workloads) (*Result, error) {
	r := newResult("abl-wakeup", "braid IPC vs busy-bit wakeup latency, normalized to 1 cycle")
	series := vary(true, uarch.BraidConfig(8), []int{0, 2, 4},
		func(c *uarch.Config, n int) { c.ExtWakeupExtra = n })
	if err := sweep(w, r, braid8(), series); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"The paper argues busy-bit synchronization is easy because only ~2 external values appear per cycle; the small spread here confirms external wakeup latency is a second-order effect.")
	return r, nil
}

// AblCluster evaluates §5.2's clustering: BEU groups with slow
// inter-cluster communication.
func AblCluster(w *Workloads) (*Result, error) {
	r := newResult("abl-cluster", "braid IPC with clustered BEUs, normalized to unclustered")
	var series []variant
	for _, clusters := range []int{2, 4} {
		for _, delay := range []int{1, 4} {
			cfg := uarch.BraidConfig(8)
			cfg.Clusters, cfg.InterClusterDelay = clusters, delay
			series = append(series, variant{fmt.Sprintf("%dcl/+%d", clusters, delay), true, cfg})
		}
	}
	if err := sweep(w, r, braid8(), series); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"Braids communicate few external values, so even a 4-cycle inter-cluster penalty costs little — supporting the paper's claim that clustering composes with the braid microarchitecture.")
	return r, nil
}

// AblWindowOoO gives each BEU an out-of-order window over its whole FIFO,
// the design the paper considered and rejected (§5.1).
func AblWindowOoO(w *Workloads) (*Result, error) {
	r := newResult("abl-window", "braid IPC with a full out-of-order BEU window, normalized to window 2")
	cfg := uarch.BraidConfig(8)
	cfg.BEUWindow = cfg.BEUFIFO
	if err := sweep(w, r, braid8(), []variant{{"window=fifo", true, cfg}}); err != nil {
		return nil, err
	}
	r.AddClaim("an out-of-order BEU scheduler buys almost nothing", 1.0, r.Average("window=fifo", "all"))
	return r, nil
}

// AblInternal recompiles every benchmark with smaller internal register
// files and reports both performance and the pressure splits induced.
func AblInternal(w *Workloads) (*Result, error) {
	r := newResult("abl-internal", "braid IPC vs internal registers at compile time, normalized to 8")
	err := w.EachBench(func(b *Bench) (func(), error) {
		base, err := w.IPC(b, true, uarch.BraidConfig(8))
		if err != nil {
			return nil, err
		}
		type point struct {
			ipc    float64
			splits int
		}
		pointsByN := map[int]point{}
		for _, n := range []int{4, 2} {
			res, err := braid.Compile(b.Orig, braid.Options{MaxInternal: n})
			if err != nil {
				return nil, err
			}
			st, err := w.Simulate(res.Prog, uarch.BraidConfig(8))
			if err != nil {
				return nil, err
			}
			pointsByN[n] = point{st.IPC(), res.PressureSplits}
		}
		return func() {
			for _, n := range []int{4, 2} {
				r.Set(b.Name, b.FP, fmt.Sprintf("%d", n), pointsByN[n].ipc/base)
				r.Set(b.Name, b.FP, fmt.Sprintf("splits@%d", n), float64(pointsByN[n].splits))
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.sortSeries([]string{"4", "2", "splits@4", "splits@2"})
	r.AddClaim("4 internal registers already near 8", 1.0, r.Average("4", "all"))
	return r, nil
}

// AblAlias strips every alias class before compiling and simulating: the
// braid compiler must split more braids to preserve memory order, and the
// load-store queue loses its static disambiguation.
func AblAlias(w *Workloads) (*Result, error) {
	r := newResult("abl-alias", "IPC without compiler alias information, normalized to with")
	err := w.EachBench(func(b *Bench) (func(), error) {
		stripped := b.Orig.Clone()
		for i := range stripped.Instrs {
			stripped.Instrs[i].AliasClass = 0
		}
		res, err := braid.Compile(stripped, braid.Options{})
		if err != nil {
			return nil, err
		}

		braidBase, err := w.IPC(b, true, uarch.BraidConfig(8))
		if err != nil {
			return nil, err
		}
		st, err := w.Simulate(res.Prog, uarch.BraidConfig(8))
		if err != nil {
			return nil, err
		}
		braidRel := st.IPC() / braidBase

		oooBase, err := w.IPC(b, false, uarch.OutOfOrderConfig(8))
		if err != nil {
			return nil, err
		}
		st, err = w.Simulate(stripped, uarch.OutOfOrderConfig(8))
		if err != nil {
			return nil, err
		}
		oooRel := st.IPC() / oooBase
		return func() {
			r.Set(b.Name, b.FP, "braid", braidRel)
			r.Set(b.Name, b.FP, "mem-splits", float64(res.MemSplits))
			r.Set(b.Name, b.FP, "o-o-o", oooRel)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.sortSeries([]string{"braid", "o-o-o", "mem-splits"})
	r.Notes = append(r.Notes,
		"Loads must then wait for every older store's address before issuing. The generated benchmarks emit braids contiguously, so compile-time memory splits stay rare; the cost shows up in the load-store queue instead.")
	return r, nil
}

// AblException sweeps injected exception rates through §3.4's
// drain-restore-serialize mechanism; the paper chose simplicity over speed
// because exceptions are rare, and the curve quantifies exactly how rare
// they need to be.
func AblException(w *Workloads) (*Result, error) {
	r := newResult("abl-exception", "braid IPC vs exceptions per N instructions, normalized to none")
	var series []variant
	for _, every := range []uint64{5000, 1000, 250} {
		cfg := uarch.BraidConfig(8)
		cfg.ExceptionEvery = every
		cfg.ExceptionHandler = 64
		series = append(series, variant{fmt.Sprintf("1/%d", every), true, cfg})
	}
	if err := sweep(w, r, braid8(), series); err != nil {
		return nil, err
	}
	r.AddClaim("one exception per 5000 instructions is nearly free", 1.0, r.Average("1/5000", "all"))
	r.Notes = append(r.Notes,
		"Each exception drains the machine, restores the checkpoint, and runs a 64-instruction handler window through a single BEU (§3.4).")
	return r, nil
}
