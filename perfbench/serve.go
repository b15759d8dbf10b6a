package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/remote"
	"braid/internal/service"
	"braid/internal/uarch"
)

// serveWorkload is closed-loop braidd traffic: clients that each run the
// same width-8 sweep, one request at a time, through a shared remote.Pool
// to in-process backends on loopback. The first request for a point misses
// the backend cache (decode, simulate, put, encode); the other clients'
// requests for it repeat it and hit the LRU, or coalesce with the running
// simulation. Every iteration starts fresh backends, so each iteration sees
// the same mix.
type serveWorkload struct {
	dyn      uint64 // dynamic instructions per suite program
	backends int    // braidd backends, one simulation worker each
	clients  int    // closed-loop clients, each requesting every point once
	iters    int    // iterations per episode, each on fresh backends
}

// serveSpec models two `braidbench -remote -j 1` clients sweeping the same
// 104 points (26 benchmarks x 4 paradigms at width 8) against two shared
// backends, as the CI service job runs the same sweep twice against one
// pair of backends: one request in two repeats an earlier point, and two
// requests are in flight, one per CPU of the reference host. An iteration
// is 208 requests, an episode eight of them (1664, ~16 beyond p99).
var serveSpec = serveWorkload{dyn: 4000, backends: 2, clients: 2, iters: 8}

// spanHeader carries a benchmark-only attempt id from the client transport
// to the backend middleware, so client and server spans join.
const spanHeader = "X-Perfbench-Span"

type servePoint struct {
	id   string // bench/core
	prog *isa.Program
	cfg  uarch.Config
}

// serveInst is one episode's system under test and what it has served.
type serveInst struct {
	spec     serveWorkload
	rng      *rand.Rand
	w        *experiments.Workloads // the request programs' suite
	pts      []servePoint
	raw      map[string][]byte // the first Stats bytes served for each point
	tr       serveTrace        // pooled traced samples
	backends []*backend
	client   *http.Client
	pool     *remote.Pool
	used     bool                    // the backends' caches hold an iteration's results
	spans    atomic.Pointer[spanLog] // non-nil while a traced phase runs
}

type serveTrace struct {
	handler, hit, miss, client, nw []float64
}

func (s serveWorkload) Run(ctx context.Context, e *Episode) error {
	// Each episode draws its own requests from the run's seed.
	in := &serveInst{spec: s, rng: rand.New(rand.NewSource(e.Seed*1_000_003 + int64(e.Index))), raw: map[string][]byte{}}
	if err := episode(ctx, e, s.iters, func(ctx context.Context) (instance, error) { return in, in.setup(ctx) }); err != nil {
		return err
	}
	in.verify(e)
	return nil
}

type backend struct {
	url  string
	hs   *http.Server
	done chan error
}

// setup prepares the request suite and brings the backends up.
func (in *serveInst) setup(ctx context.Context) error {
	w, err := experiments.LoadSuiteCtx(ctx, in.spec.dyn, 0)
	if err != nil {
		return err
	}
	in.w = w
	for _, b := range w.Benches {
		for _, c := range cores {
			cfg := canonical(coreKind(c))
			p := b.Orig
			if cfg.Core == uarch.CoreBraid {
				p = b.Braided
			}
			in.pts = append(in.pts, servePoint{id: b.Name + "/" + c, prog: p, cfg: cfg})
		}
	}
	return in.start(ctx)
}

// start brings up fresh backends (empty result caches) and a pool over
// them, and pings every backend once.
func (in *serveInst) start(ctx context.Context) error {
	in.close()
	var urls []string
	for i := 0; i < in.spec.backends; i++ {
		b, err := startBackend(in.middleware(service.New(service.Config{Workers: 1}).Handler()))
		if err != nil {
			in.close()
			return err
		}
		in.backends = append(in.backends, b)
		urls = append(urls, b.url)
	}
	base := http.DefaultTransport.(*http.Transport).Clone()
	in.client = &http.Client{Transport: &spanTransport{base: base, in: in}}
	var err error
	if in.pool, err = remote.NewPool(remote.Options{Backends: urls, Client: in.client}); err == nil {
		var down []string
		if down, err = in.pool.Ping(ctx); err == nil && len(down) > 0 {
			err = fmt.Errorf("backends down: %v", down)
		}
	}
	if err != nil {
		in.close()
	}
	return err
}

func startBackend(h http.Handler) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { b.done <- b.hs.Serve(ln) }()
	return b, nil
}

func (in *serveInst) close() {
	if in.client != nil {
		in.client.CloseIdleConnections()
	}
	for _, b := range in.backends {
		b.hs.Close()
		<-b.done
	}
	in.backends, in.client = nil, nil
}

// sequence draws one iteration's requests: each client's own seeded order
// of every point, client after client. Which client asks for a point first,
// and so which request misses, depends on the seed; the multiset of
// requests does not.
func (in *serveInst) sequence() []int {
	n := len(in.pts)
	seq := make([]int, 0, in.spec.clients*n)
	for range in.spec.clients {
		seq = append(seq, in.rng.Perm(n)...)
	}
	return seq
}

type callKey struct{}

func (in *serveInst) measure(ctx context.Context, r *Episode, tr *tracer) error {
	if in.used {
		if err := in.start(ctx); err != nil {
			return err
		}
	}
	in.used = true
	seq := in.sequence()
	var sl *spanLog
	if tr != nil {
		sl = &spanLog{attempts: map[string]*attemptSpan{}}
		in.spans.Store(sl)
		defer in.spans.Store(nil)
	}
	lat := make([]time.Duration, len(seq))
	res := make([]*remote.Result, len(seq))
	errs := make([]error, len(seq))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, n := 0, len(in.pts); c < in.spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * n; i < (c+1)*n; i++ {
				pt := in.pts[seq[i]]
				t := time.Now()
				res[i], errs[i] = in.pool.SimulateFull(context.WithValue(ctx, callKey{}, i), pt.prog, pt.cfg)
				lat[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()

	var detailed, retired uint64
	failed := 0
	first := map[string][]byte{}
	r.Attempted += len(seq)
	for i, rr := range res {
		id := in.pts[seq[i]].id
		if errs[i] != nil {
			r.fail("%s: %v", id, errs[i])
			failed++
			continue
		}
		retired += rr.Stats.Retired
		if rr.Source == "run" {
			detailed += rr.Stats.Retired
		}
		if f, ok := first[id]; ok && !bytes.Equal(f, rr.RawStats) {
			r.fail("%s: two responses in one iteration differ", id)
		} else if !ok {
			first[id] = rr.RawStats
		}
		if f, ok := in.raw[id]; !ok {
			in.raw[id] = rr.RawStats
		} else if !bytes.Equal(f, rr.RawStats) {
			r.fail("%s: response differs from an earlier iteration's", id)
		}
	}
	r.add(wall, detailed, retired, uint64(len(seq)), lat)
	r.noteDigest(rawDigest(first))
	if tr != nil {
		return in.traceLayers(ctx, r, tr, sl, lat, len(seq)-failed)
	}
	return nil
}

// traceLayers fills the per-layer metrics of one traced iteration; the
// latency percentiles pool every traced iteration of the run.
func (in *serveInst) traceLayers(ctx context.Context, r *Episode, tr *tracer, sl *spanLog, lat []time.Duration, ok int) error {
	st := &in.tr
	if err := prepLayers(tr, in.spec.dyn, in.w.Benches); err != nil {
		r.fail("%v", err)
	}
	transport := map[int]time.Duration{}
	for _, a := range sl.attempts {
		tr.add("remote.attempts", 1)
		tr.add("remote.bytes_sent", float64(a.sent))
		tr.add("remote.bytes_received", float64(a.recv))
		transport[a.call] += a.transport
		if !a.handled {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		st.handler = append(st.handler, ms(a.handler))
		st.nw = append(st.nw, ms(a.transport-a.handler))
		switch a.resp.Source {
		case "cache":
			st.hit = append(st.hit, ms(a.handler))
		case "run":
			st.miss = append(st.miss, ms(a.handler))
			c := a.resp.core()
			tr.add("uarch."+c+".host_s", a.resp.SimMS/1e3)
			tr.add("uarch."+c+".sims", 1)
			tr.add("uarch."+c+".detailed", float64(a.resp.Stats.Retired))
		}
	}
	for i, d := range lat {
		st.client = append(st.client, float64((d-transport[i]).Nanoseconds())/1e6)
	}
	for _, c := range cores {
		tr.set("uarch."+c+".mips", tr.ratio("uarch."+c+".detailed", "uarch."+c+".host_s")/1e6)
	}
	snap := in.pool.Snapshot()
	tr.add("remote.retries", float64(snap.Retries))
	tr.add("remote.failovers", float64(snap.Failovers))
	tr.add("remote.points", float64(ok))
	tr.set("remote.useful_ratio", tr.ratio("remote.points", "remote.attempts"))
	tr.set("remote.client_p50_ms", quantile(st.client, 0.5))
	tr.set("net.transport_p50_ms", quantile(st.nw, 0.5))
	tr.set("service.handler_p50_ms", quantile(st.handler, 0.5))
	tr.set("service.handler_p99_ms", quantile(st.handler, 0.99))
	tr.set("service.hit_handler_p50_ms", quantile(st.hit, 0.5))
	tr.set("service.miss_handler_p50_ms", quantile(st.miss, 0.5))
	for _, b := range in.backends {
		m, err := in.backendMetrics(ctx, b.url)
		if err != nil {
			return err
		}
		tr.add("service.hits", m.CacheHits)
		tr.add("service.lookups", m.CacheHits+m.CacheMisses+m.Coalesced)
		tr.add("service.coalesced", m.Coalesced)
		tr.add("service.shed", m.Shed)
	}
	tr.set("service.hit_ratio", tr.ratio("service.hits", "service.lookups"))
	in.modelLayers(tr)
	return nil
}

// modelLayers reports the simulated IPCs of the served points.
func (in *serveInst) modelLayers(tr *tracer) {
	ipc := map[string]float64{}
	for id, raw := range in.raw {
		var st uarch.Stats
		if json.Unmarshal(raw, &st) == nil {
			ipc[id] = st.IPC()
		}
	}
	var ratios []float64
	for _, c := range cores {
		var xs []float64
		for _, b := range in.w.Benches {
			if v, ok := ipc[b.Name+"/"+c]; ok {
				xs = append(xs, v)
			}
			if c == "braid" && ipc[b.Name+"/ooo"] > 0 {
				ratios = append(ratios, ipc[b.Name+"/braid"]/ipc[b.Name+"/ooo"])
			}
		}
		tr.set("model."+c+".ipc", mean(xs))
	}
	// Figure 13's headline claim, the only paper claim the served points cover.
	ratio := mean(ratios)
	tr.set("model.fig13_braid_ooo_ratio", ratio)
	tr.set("model.claims_mean_abs_rel_err", math.Abs(ratio-0.91)/0.91)
}

type backendCounters struct {
	CacheHits   float64 `json:"cache_hits"`
	CacheMisses float64 `json:"cache_misses"`
	Coalesced   float64 `json:"coalesced_total"`
	Shed        float64 `json:"shed_total"`
}

func (in *serveInst) backendMetrics(ctx context.Context, url string) (backendCounters, error) {
	var m backendCounters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// verify byte-compares the first response served for every point with a
// local uarch.Simulate of the same point, and checks its retired count
// against the interpreter's.
func (in *serveInst) verify(r *Episode) {
	for _, pt := range in.pts {
		raw, ok := in.raw[pt.id]
		if !ok {
			r.fail("%s: never served", pt.id)
			continue
		}
		st, err := uarch.Simulate(pt.prog, pt.cfg)
		if err != nil {
			r.fail("%s: local simulation: %v", pt.id, err)
			continue
		}
		local, err := json.Marshal(st)
		if err != nil || !bytes.Equal(local, raw) {
			r.fail("%s: served stats differ from local simulation", pt.id)
		}
		if n, ok := interpSteps(pt.prog); !ok || n != st.Retired {
			r.fail("%s: retired %d, interpreter executed %d", pt.id, st.Retired, n)
		}
	}
}

// rawDigest hashes each point's served Stats bytes in point-id order.
func rawDigest(raw map[string][]byte) string {
	ids := make([]string, 0, len(raw))
	for id := range raw {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\t%s\n", id, raw[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func coreKind(name string) uarch.CoreKind {
	switch name {
	case "inorder":
		return uarch.CoreInOrder
	case "dep":
		return uarch.CoreDepSteer
	case "braid":
		return uarch.CoreBraid
	}
	return uarch.CoreOutOfOrder
}

// spanLog joins client attempts with server handler spans by attempt id.
type spanLog struct {
	mu       sync.Mutex
	n        int
	attempts map[string]*attemptSpan
}

type attemptSpan struct {
	call       int
	sent, recv int64
	transport  time.Duration // request sent to response body read
	handler    time.Duration // server handler time
	handled    bool
	resp       servedResp
}

// servedResp is the part of a /v1/simulate response the trace reads.
type servedResp struct {
	Source string  `json:"source"`
	SimMS  float64 `json:"sim_ms"`
	Core   string  `json:"core"`
	Stats  struct {
		Retired uint64 `json:"Retired"`
	} `json:"stats"`
}

func (s servedResp) core() string {
	for _, c := range cores {
		if canonical(coreKind(c)).Core.String() == s.Core {
			return c
		}
	}
	return "ooo"
}

func (sl *spanLog) begin(call int, sent int64) string {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.n++
	id := strconv.Itoa(call) + "." + strconv.Itoa(sl.n)
	sl.attempts[id] = &attemptSpan{call: call, sent: sent}
	return id
}

func (sl *spanLog) end(id string, d time.Duration, recv int64) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	a := sl.attempts[id]
	a.transport, a.recv = d, recv
}

func (sl *spanLog) handled(id string, d time.Duration, body []byte) {
	var resp servedResp
	_ = json.Unmarshal(body, &resp) // an error body leaves Source empty
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if a, ok := sl.attempts[id]; ok {
		a.handler, a.handled, a.resp = d, true, resp
	}
}

// spanTransport times each /v1/simulate attempt from send to the end of
// the response body and tags it with an attempt id while a trace runs.
type spanTransport struct {
	base http.RoundTripper
	in   *serveInst
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sl := t.in.spans.Load()
	call, ok := req.Context().Value(callKey{}).(int)
	if sl == nil || !ok {
		return t.base.RoundTrip(req)
	}
	id := sl.begin(call, req.ContentLength)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, id)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sl.end(id, time.Since(start), 0)
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, done: func(n int64) { sl.end(id, time.Since(start), n) }}
	return resp, nil
}

// timedBody reports the bytes read when the body hits EOF or is closed.
type timedBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if errors.Is(err, io.EOF) {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.rc.Close()
}

// middleware times the backend handler for tagged requests and keeps a
// copy of the response body for the trace.
func (in *serveInst) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sl := in.spans.Load()
		id := req.Header.Get(spanHeader)
		if sl == nil || id == "" {
			h.ServeHTTP(w, req)
			return
		}
		cw := &captureWriter{ResponseWriter: w}
		t := time.Now()
		h.ServeHTTP(cw, req)
		sl.handled(id, time.Since(t), cw.body.Bytes())
	})
}

type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}
