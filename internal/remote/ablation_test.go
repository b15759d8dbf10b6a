package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"braid/internal/chaos"
	"braid/internal/experiments"
	"braid/internal/service"
	"braid/internal/uarch"
)

var ablationOut = flag.String("ablation-out", "",
	"run TestFleetAblation ablationRepeats times and write the matrix as JSON to this file")

// ablationRepeats is how often -ablation-out repeats every cell; the plain
// test runs each cell once.
const ablationRepeats = 5

// ablationFault is one row of the fleet ablation matrix: the schedule of
// the faulty backend's chaos proxy. A time-based fault is paced — the
// sweep runs in waves with pauses — so it spans several fault periods.
type ablationFault struct {
	name  string
	sched func() chaos.Schedule
	paced bool
}

func everyN(n int64, f chaos.Fault) func() chaos.Schedule {
	return func() chaos.Schedule { return chaos.EveryN(n, f) }
}

var ablationFaults = []ablationFault{
	{"503 every 2nd", everyN(2, chaos.Fault{Kind: chaos.Status}), false},
	{"RST every 2nd", everyN(2, chaos.Fault{Kind: chaos.Reset}), false},
	{"corrupt every 2nd", everyN(2, chaos.Fault{Kind: chaos.Corrupt}), false},
	{"300ms latency every 3rd", everyN(3, chaos.Fault{Kind: chaos.Latency, Delay: 300 * time.Millisecond}), false},
	{"slow-loris every 5th", everyN(5, chaos.Fault{Kind: chaos.SlowLoris, Delay: 10 * time.Millisecond}), false},
	{"flap 2s/2s", func() chaos.Schedule { return chaos.Flap(2*time.Second, 2*time.Second).Schedule }, true},
}

// ablationMech is one column: which self-healing mechanisms the pool runs.
// The prober acts through the breakers, so "breaker off" runs without it.
type ablationMech struct {
	name                   string
	hedge, breaker, prober bool
}

var ablationMechs = []ablationMech{
	{"all on", true, true, true},
	{"hedging off", false, true, true},
	{"breaker off", true, false, false},
	{"prober off", true, true, false},
}

// ablationOptions is the cell's pool configuration with the chaos soak's
// tuning: six attempts, millisecond backoff, breakers that trip after two
// consecutive failures and cool down for a second, and a 250 ms prober.
func ablationOptions(backends []string, m ablationMech) Options {
	o := Options{
		Backends:         backends,
		Hedge:            m.hedge,
		maxAttempts:      6,
		baseBackoff:      time.Millisecond,
		maxBackoff:       10 * time.Millisecond,
		disableBreaker:   !m.breaker,
		breakerThreshold: 2,
		breakerCooldown:  time.Second,
	}
	if m.prober {
		o.Probe = 250 * time.Millisecond
	}
	return o
}

// ablationPoint is one point of the soak's sweep with its local Stats
// bytes, the reference every remote answer must equal.
type ablationPoint struct {
	name string
	pt   experiments.Point
	want []byte
}

// ablationRun is one cell's outcome.
type ablationRun struct {
	dropped, mismatched int
	failedAttempts      uint64
	trips               uint64
	shortCircuits       uint64
	p99MS               float64
	wallS               float64 // time spent waiting on the sweep; pacing pauses excluded
}

// runAblationCell sweeps every point through a fresh two-backend fleet —
// one healthy, one behind the fault's chaos proxy — eight at a time.
func runAblationCell(t *testing.T, points []ablationPoint, f ablationFault, m ablationMech) ablationRun {
	t.Helper()
	healthy := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer healthy.Close()
	backend := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer backend.Close()
	cp, err := chaos.New(backend.URL, f.sched())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(cp)
	defer proxy.Close()
	pool, err := NewPool(ablationOptions([]string{healthy.URL, proxy.URL}, m))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	wave := len(points)
	if f.paced {
		wave = 8
	}
	var (
		out  ablationRun
		mu   sync.Mutex
		lat  = make([]float64, len(points))
		wall time.Duration
	)
	for lo := 0; lo < len(points); lo += wave {
		hi := min(lo+wave, len(points))
		t0 := time.Now()
		var wg sync.WaitGroup
		sem := make(chan struct{}, 8)
		for i := lo; i < hi; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				p := points[i]
				prog := p.pt.Bench.Orig
				if p.pt.Braided {
					prog = p.pt.Bench.Braided
				}
				s := time.Now()
				res, err := pool.SimulateFull(context.Background(), prog, p.pt.Cfg)
				lat[i] = float64(time.Since(s).Nanoseconds()) / 1e6
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					out.dropped++
					t.Errorf("%s / %s: %s dropped: %v", f.name, m.name, p.name, err)
				case !bytes.Equal(res.RawStats, p.want):
					out.mismatched++
					t.Errorf("%s / %s: %s: remote Stats differ from local", f.name, m.name, p.name)
				}
			}(i)
		}
		wg.Wait()
		wall += time.Since(t0)
		if f.paced && hi < len(points) {
			time.Sleep(400 * time.Millisecond)
		}
	}
	if cp.Faults() == 0 {
		t.Errorf("%s / %s: the proxy never injected a fault", f.name, m.name)
	}
	s := pool.Snapshot()
	sort.Float64s(lat)
	out.failedAttempts, out.trips, out.shortCircuits = s.FailedAttempts, s.BreakerTrips, s.ShortCircuits
	out.p99MS = lat[(len(lat)*99)/100]
	out.wallS = wall.Seconds()
	return out
}

// TestFleetAblation is the evidence behind the fleet's mechanism set: the
// chaos soak's 104-point sweep under every fault kind, with each
// self-healing mechanism switched off in turn. Correctness never depends
// on a mechanism — every cell must finish with zero dropped points and
// Stats bit-identical to local simulation — so what a mechanism buys shows
// only in the cost columns. With -ablation-out the matrix runs
// ablationRepeats times and the per-cell medians land in a JSON artifact.
func TestFleetAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute chaos ablation")
	}
	w, err := experiments.LoadSuite(1500)
	if err != nil {
		t.Fatal(err)
	}
	var points []ablationPoint
	for _, pt := range soakPoints(w) {
		prog := pt.Bench.Orig
		if pt.Braided {
			prog = pt.Bench.Braided
		}
		st, err := uarch.SimulateChecked(context.Background(), prog, pt.Cfg)
		if err != nil {
			t.Fatalf("local %s: %v", pt.Bench.Name, err)
		}
		want, _ := json.Marshal(st)
		name := fmt.Sprintf("%s/%s%d", pt.Bench.Name, pt.Cfg.Core, pt.Cfg.IssueWidth)
		points = append(points, ablationPoint{name: name, pt: pt, want: want})
	}

	repeats := 1
	if *ablationOut != "" {
		repeats = ablationRepeats
	}
	runs := make([][]ablationRun, len(ablationFaults)*len(ablationMechs))
	for r := 0; r < repeats; r++ {
		for fi, f := range ablationFaults {
			for mi, m := range ablationMechs {
				run := runAblationCell(t, points, f, m)
				t.Logf("repeat %d, %s, %s: %d failed attempts, p99 %.0f ms, wall %.2f s, %d trips, %d short-circuits",
					r+1, f.name, m.name, run.failedAttempts, run.p99MS, run.wallS, run.trips, run.shortCircuits)
				c := fi*len(ablationMechs) + mi
				runs[c] = append(runs[c], run)
			}
		}
	}
	if *ablationOut != "" && !t.Failed() {
		if err := writeAblation(*ablationOut, len(points), repeats, runs); err != nil {
			t.Fatal(err)
		}
	}
}

// ablationMetric is one cost column of a cell: its per-repeat values and
// their median.
type ablationMetric struct {
	Median float64   `json:"median"`
	Runs   []float64 `json:"runs"`
}

func metricOf(runs []ablationRun, get func(ablationRun) float64) ablationMetric {
	m := ablationMetric{Runs: make([]float64, len(runs))}
	for i, r := range runs {
		m.Runs[i] = get(r)
	}
	sorted := append([]float64(nil), m.Runs...)
	sort.Float64s(sorted)
	if n := len(sorted); n%2 == 1 {
		m.Median = sorted[n/2]
	} else {
		m.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return m
}

func writeAblation(path string, points, repeats int, runs [][]ablationRun) error {
	type cell struct {
		Fault          string         `json:"fault"`
		Mechanisms     string         `json:"mechanisms"`
		Dropped        int            `json:"dropped_points"`
		Mismatched     int            `json:"mismatched_points"`
		FailedAttempts ablationMetric `json:"failed_attempts"`
		P99MS          ablationMetric `json:"p99_point_latency_ms"`
		WallS          ablationMetric `json:"wall_s"`
		Trips          ablationMetric `json:"breaker_trips"`
		ShortCircuits  ablationMetric `json:"short_circuits"`
	}
	doc := struct {
		Host    map[string]any `json:"host"`
		Commit  string         `json:"commit"`
		Points  int            `json:"points"`
		Repeats int            `json:"repeats"`
		Cells   []cell         `json:"cells"`
	}{Host: hostFingerprint(), Commit: gitCommit(), Points: points, Repeats: repeats}
	for fi, f := range ablationFaults {
		for mi, m := range ablationMechs {
			rs := runs[fi*len(ablationMechs)+mi]
			c := cell{Fault: f.name, Mechanisms: m.name,
				FailedAttempts: metricOf(rs, func(r ablationRun) float64 { return float64(r.failedAttempts) }),
				P99MS:          metricOf(rs, func(r ablationRun) float64 { return r.p99MS }),
				WallS:          metricOf(rs, func(r ablationRun) float64 { return r.wallS }),
				Trips:          metricOf(rs, func(r ablationRun) float64 { return float64(r.trips) }),
				ShortCircuits:  metricOf(rs, func(r ablationRun) float64 { return float64(r.shortCircuits) }),
			}
			for _, r := range rs {
				c.Dropped += r.dropped
				c.Mismatched += r.mismatched
			}
			doc.Cells = append(doc.Cells, c)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostFingerprint names the machine a measurement came from; absolute
// latencies do not carry across hosts.
func hostFingerprint() map[string]any {
	model := runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// gitCommit is the checkout's HEAD, marked "+dirty" when the tree has
// uncommitted changes, or "unknown" outside a git checkout.
func gitCommit() string {
	root, _ := filepath.Abs(filepath.Join("..", ".."))
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}
