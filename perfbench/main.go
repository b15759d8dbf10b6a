// Command perfbench is the repository's benchmark: one process runs one
// named workload for a fixed time, checks that every output is correct, and
// prints its metrics by name with their units.
//
//	perfbench --workload sweep|sampled|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown of a separately traced phase.
// The line before it is a JSON report with the host fingerprint, commit,
// seed, sample counts and the workload's stats digest. See README.md for why
// each workload exists and which layer should move which metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one named measurement in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is the line printed before the Result: everything needed to
// interpret the numbers on another day or another host.
type Report struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	HeldOutSeed int64          `json:"held_out_seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Host        Host           `json:"host"`
	StatsDigest string         `json:"stats_digest"`
	Samples     map[string]int `json:"samples"`
	Errors      []string       `json:"errors,omitempty"`
}

// heldOutSeed is the seed no tuning used: a later claim of a gain on serve
// must also hold with --seed heldOutSeed.
const heldOutSeed = 20081012

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed (drives serve's request order and repeat pattern)")
		seconds = flag.Int("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: report the per-layer breakdown of a traced phase instead of end-to-end metrics")
		index   = flag.Int("episode", -1, "internal: run one episode as a child process")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *index >= 0 {
		os.Exit(runEpisode(wl, root, *seed, *index, *trace == 1))
	}

	// Children are forked from this goroutine with a parent-death signal,
	// which Linux ties to the forking thread: pin it for the whole run.
	runtime.LockOSThread()
	// Every child is bounded by this deadline, so a run ends in time.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, rep, err := measureRun(ctx, *name, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		// An infrastructure failure (not a wrong answer): no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		cancel()
		os.Exit(1)
	}
	rep.Host = fingerprint(root)
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			cancel()
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// runDeadline bounds a whole run, episodes included.
const runDeadline = 170 * time.Second

// runEpisode is the child side: one episode, its result as one JSON line.
func runEpisode(wl Workload, root string, seed int64, index int, trace bool) int {
	// Scratch files (the sweep's checkpoint) live inside the checkout and
	// go away with the episode.
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "episode-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	ep := &Episode{Seed: seed, Index: index, Trace: trace, Dir: work}
	if err := wl.Run(context.Background(), ep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: episode %d: %v\n", index, err)
		return 1
	}
	line, err := json.Marshal(ep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
