package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"migratory/internal/server"
	"migratory/internal/sim"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// clients is the closed loop's client count: one per CPU of the 2-CPU
// machines the benchmark was tuned on, and never more than the CPUs.
func clients(e *env) int { return min(2, e.nproc) }

// ledgerRequests is how many requests each client sends per phase of a
// traced run. The traced run replays a fixed schedule, so its counters
// repeat exactly across runs of one seed.
const ledgerRequests = 30

// serveWarmups are the configs the warm-up sends before timing, one per
// trace: they fill the segment cache. Assoc 8 keeps them out of the
// directory part of serveUniverse.
func serveWarmups(ts *traceSet) []namedConfig {
	var out []namedConfig
	for i := range ts.apps {
		out = append(out, serveConfig(ts, i, sim.RunConfig{Engine: sim.EngineDirectory, Policy: "conventional", Assoc: 8}))
	}
	return out
}

// serveUniverse is every cold config a cohd-serve run may send: directory
// and bus runs over the five traces, varying policy or protocol, cache
// size, block size and associativity. It holds about three times the cold
// requests a 20-second run completes today, so a faster service still
// never runs out of fresh digests.
func serveUniverse(ts *traceSet) []namedConfig {
	caches := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 0}
	var out []namedConfig
	for i := range ts.apps {
		for _, pol := range []string{"conventional", "conservative", "basic", "aggressive"} {
			for _, cb := range caches {
				for _, bs := range []int{16, 32, 64, 128} {
					for _, assoc := range []int{1, 2, 4} {
						out = append(out, serveConfig(ts, i, sim.RunConfig{Engine: sim.EngineDirectory, Policy: pol, CacheBytes: cb, BlockSize: bs, Assoc: assoc}))
					}
				}
			}
		}
		for _, prot := range []string{"mesi", "adaptive", "adaptive-migrate-first", "symmetry"} {
			for _, cb := range caches {
				for _, bs := range []int{16, 32, 64} {
					for _, assoc := range []int{1, 2, 4, 8} {
						out = append(out, serveConfig(ts, i, sim.RunConfig{Engine: sim.EngineBus, Protocol: prot, CacheBytes: cb, BlockSize: bs, Assoc: assoc}))
					}
				}
			}
		}
	}
	return out
}

func serveConfig(ts *traceSet, i int, cfg sim.RunConfig) namedConfig {
	cfg.TraceFile = ts.paths[i]
	variant := cfg.Policy + cfg.Protocol
	return namedConfig{
		key:      fmt.Sprintf("%s/%s/%s/c%d/b%d/a%d", cfg.Engine, ts.apps[i], variant, cfg.CacheBytes, cfg.BlockSize, cfg.Assoc),
		cfg:      cfg,
		path:     ts.paths[i],
		accesses: uint64(ts.lengths[i]),
	}
}

// service is the cohd service in-process, wired the way cmd/cohd wires it
// by default: a result-cache dir, a manifest dir, live Stats and a shared
// segment cache of the default size, served by Server.Handler() on a
// loopback listener.
type service struct {
	srv    *server.Server
	seg    *trace.SegmentCache
	hs     *http.Server
	url    string
	served chan error
}

// startService starts a service whose state lives under dir. wrap, when
// non-nil, wraps the handler, and run replaces sim.Run (traced runs only).
func startService(dir string, wrap func(http.Handler) http.Handler, run func(context.Context, sim.RunConfig) (*sim.RunResult, error)) (*service, error) {
	seg := trace.NewSegmentCache(trace.DefaultTraceCacheBytes)
	srv, err := server.New(server.Config{
		CacheDir:    filepath.Join(dir, "cache"),
		ManifestDir: filepath.Join(dir, "manifests"),
		Stats:       &telemetry.RunStats{},
		Cache:       seg,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		RunFunc:     run,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{srv: srv, seg: seg, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/v1/runs", served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the worker pool and
// waits for the serving goroutine to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.srv.Shutdown(ctx))
}

// counters reads the service's admission counters.
func (s *service) counters() (hits, coalesced, rejected uint64) {
	c := s.srv.StatusExtra()["cohd"].(map[string]any)
	return c["cache_hits"].(uint64), c["coalesced"].(uint64), c["rejected"].(uint64)
}

// reply is the part of a job snapshot the client checks.
type reply struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// sample is one completed request.
type sample struct {
	hot      bool
	lat      time.Duration
	accesses uint64
	jobID    string
	op       int
	cfg      namedConfig
}

// client is one closed-loop caller: it sends its next request only after
// the previous reply. Its cold configs are its own share of the universe,
// so no two clients ever send the same digest, and its hot requests repeat
// only digests it has already completed.
type client struct {
	hc      *http.Client
	url     string
	rng     *rand.Rand
	cold    []namedConfig
	next    int
	done    []int          // indices into cold of completed configs
	results map[int][]byte // their canonical results
	sent    int
	hotSent int
	noHot   bool // warm-up clients send cold requests only
	ops     *opCounter
	samples []sample
}

func newClient(e *env, id int, universe []namedConfig, url string, ops *opCounter) *client {
	var cold []namedConfig
	for i := id; i < len(universe); i += clients(e) {
		cold = append(cold, universe[i])
	}
	return &client{
		hc:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		url:     url,
		rng:     rand.New(rand.NewSource(defaultSeed*7919 + int64(id))),
		cold:    cold,
		results: map[int][]byte{},
		ops:     ops,
	}
}

// opCounter hands out op IDs and remembers which op a config belongs to, so
// the traced run function can attribute its spans.
type opCounter struct {
	mu    sync.Mutex
	n     int
	byCfg map[string]int
}

func (o *opCounter) newOp(cfg sim.RunConfig) (int, error) {
	key, err := json.Marshal(cfg)
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	o.byCfg[string(key)] = o.n
	return o.n, nil
}

func (o *opCounter) opOf(cfg sim.RunConfig) int {
	key, _ := json.Marshal(cfg) // marshalled without error when the op was made
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byCfg[string(key)]
}

// step sends the client's next scheduled request: every third request is
// a hot repeat of one of its completed configs, the rest are cold. It
// returns false when the client has no cold config left.
func (c *client) step(t *tally, chk *checker, mu *sync.Mutex) bool {
	hot := !c.noHot && c.sent%3 == 2 && len(c.done) > 0
	idx := c.next
	if hot {
		idx = c.done[c.rng.Intn(len(c.done))]
	} else if c.next == len(c.cold) {
		return false
	} else {
		c.next++
	}
	c.sent++
	if hot {
		c.hotSent++
	}
	nc := c.cold[idx]
	s, out, err := c.post(nc, hot)
	mu.Lock()
	defer mu.Unlock()
	t.attempted++
	if err == nil {
		if hot {
			if !bytes.Equal(out, c.results[idx]) {
				err = errors.New("hot reply differs from the cold result")
			}
		} else {
			err = chk.check(nc.key, out)
		}
	}
	if err != nil {
		t.fail("cohd-serve %s (hot=%v): %v", nc.key, hot, err)
		return true
	}
	if !hot {
		c.done = append(c.done, idx)
		c.results[idx] = out
	}
	c.samples = append(c.samples, s)
	return true
}

// post sends one wait:true request and returns its sample and canonical
// result after checking the reply's status, cache flag and access count.
func (c *client) post(nc namedConfig, hot bool) (sample, []byte, error) {
	s := sample{hot: hot, cfg: nc}
	op, err := c.ops.newOp(nc.cfg)
	if err != nil {
		return s, nil, err
	}
	s.op = op
	body, err := json.Marshal(map[string]any{"config": nc.cfg, "wait": true})
	if err != nil {
		return s, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return s, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return s, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return s, nil, err
	}
	s.jobID = r.ID
	if r.Status != string(server.StatusDone) || r.CacheHit != hot {
		return s, nil, fmt.Errorf("status %q, cache_hit %v, error %q", r.Status, r.CacheHit, r.Error)
	}
	var canon bytes.Buffer
	if err := json.Compact(&canon, r.Result); err != nil {
		return s, nil, err
	}
	var acc struct{ Accesses uint64 }
	if err := json.Unmarshal(canon.Bytes(), &acc); err != nil {
		return s, nil, err
	}
	if acc.Accesses != nc.accesses {
		return s, nil, fmt.Errorf("simulated %d accesses of a %d-access trace", acc.Accesses, nc.accesses)
	}
	s.accesses = acc.Accesses
	return s, canon.Bytes(), nil
}

// opHeader carries the benchmark's op ID to the traced handler wrapper.
const opHeader = "X-Perfbench-Op"

// loop runs every client's schedule concurrently until each has sent limit
// requests (limit > 0) or the deadline passes, and returns the completed
// samples in client order and the number of hot requests the clients have
// sent so far.
func loop(cs []*client, t *tally, chk *checker, deadline time.Time, limit int) ([]sample, int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range cs {
		c.samples = nil
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for (limit == 0 && time.Now().Before(deadline)) || (limit > 0 && c.sent < limit) {
				if !c.step(t, chk, &mu) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	hot := 0
	for _, c := range cs {
		out = append(out, c.samples...)
		hot += c.hotSent
		c.hc.CloseIdleConnections()
	}
	return out, hot
}

// warmUp sends the warm-up configs (split over the clients, so the
// segment cache fills as it will under load) and, when verify is set,
// checks each reply against an in-process sim.Run of the same config: the
// library and the service must agree at any seed.
func warmUp(e *env, s *service, ts *traceSet, t *tally, chk *checker, ops *opCounter, verify bool) error {
	warm := serveWarmups(ts)
	cs := make([]*client, clients(e))
	for i := range cs {
		cs[i] = newClient(e, i, warm, s.url, ops)
		cs[i].noHot = true
	}
	loop(cs, t, chk, time.Time{}, len(warm))
	if !verify {
		return nil
	}
	for _, c := range cs {
		for i, out := range c.results {
			want, err := canonical(c.cold[i].cfg)
			if err != nil {
				return err
			}
			t.attempted++
			if !bytes.Equal(want, out) {
				t.fail("cohd-serve %s: service result differs from sim.Run", c.cold[i].key)
			}
		}
	}
	return nil
}

// checkSchedule asserts what the schedule guarantees: nothing coalesced,
// nothing rejected, and exactly one result-cache hit per hot request.
func checkSchedule(s *service, t *tally, hot int) {
	hits, coalesced, rejected := s.counters()
	if coalesced != 0 || rejected != 0 || hits != uint64(hot) {
		t.attempted++
		t.fail("cohd-serve schedule: %d hits for %d hot requests, %d coalesced, %d rejected", hits, hot, coalesced, rejected)
	}
}

// shuffled is the cold-config universe in the schedule's order. The
// schedule (this order and the clients' hot picks) is the same at every
// seed, so runs at different seeds send the same requests in the same
// sequence; the seed changes only the traces.
func shuffled(ts *traceSet) []namedConfig {
	u := serveUniverse(ts)
	rand.New(rand.NewSource(defaultSeed)).Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

// runCohdServe drives the service with a closed loop of clients posting
// wait:true requests over five default-length v3 traces: about two thirds
// cold digests (they hit the segment cache but simulate and write the
// result cache and a manifest) and one third hot repeats served from the
// result cache.
func runCohdServe(e *env, t *tally) (metrics, error) {
	m := metrics{}
	reps := setupReps
	if e.traced {
		reps = 1
	}
	var ts *traceSet
	var svc *service
	var setups, gens, writes []float64
	for i := 0; i < reps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from a collected heap
		t0, c0 := time.Now(), cpuTime()
		var err error
		if ts, err = writeTraces(e, filepath.Join(e.work, "traces"), 1); err != nil {
			return nil, err
		}
		if svc, err = startService(filepath.Join(e.work, "svc"+strconv.Itoa(i)), nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		gens, writes = append(gens, ms(ts.gen)), append(writes, ms(ts.write))
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.3f s wall, %.3f s CPU (generate %.0f ms, write %.0f ms)\n",
			i, time.Since(t0).Seconds(), setups[i], gens[i], writes[i])
	}
	chk, err := newChecker(e, "cohd-serve")
	if err != nil {
		return nil, errors.Join(err, svc.stop())
	}
	ops := &opCounter{byCfg: map[string]int{}}
	if err := warmUp(e, svc, ts, t, chk, ops, true); err != nil {
		return nil, errors.Join(err, svc.stop())
	}
	universe := shuffled(ts)
	newClients := func(s *service, oc *opCounter) []*client {
		cs := make([]*client, clients(e))
		for i := range cs {
			cs[i] = newClient(e, i, universe, s.url, oc)
		}
		return cs
	}

	if e.traced {
		m["workload.generate_ms"] = median(gens)
		m["trace.write_ms"] = median(writes)
		return m, serveLedger(e, m, t, chk, ts, svc, ops, newClients)
	}

	ph := startPhase()
	samples, hotSent := loop(newClients(svc, ops), t, chk, ph.wall0.Add(e.seconds), 0)
	st := ph.stop()
	cold, hot, accesses := split(samples)

	checkSchedule(svc, t, hotSent)
	if err := svc.stop(); err != nil {
		return nil, err
	}
	if len(cold) == 0 || len(hot) == 0 {
		return nil, errors.New("no cold or no hot request completed")
	}
	wallReport("cold request", cold)
	wallReport("hot request", hot)
	return m, finishEndToEnd(m, setups, st, len(samples), accesses)
}

// split separates cold and hot latencies (ms) and sums the accesses the
// cold requests simulated.
func split(samples []sample) (cold, hot []float64, accesses uint64) {
	for _, s := range samples {
		if s.hot {
			hot = append(hot, ms(s.lat))
		} else {
			cold = append(cold, ms(s.lat))
			accesses += s.accesses
		}
	}
	return cold, hot, accesses
}

// runSpan is what the traced run function measured for one cold request.
type runSpan struct {
	start, end time.Time
	layers     replayOp
	engine     string
	accesses   uint64
	msgs       uint64
}

// tracer instruments one traced service: it wraps the handler to time
// each request server-side, and replaces sim.Run by the same call split
// into its layers, over sources opened with the service's segment cache.
type tracer struct {
	rec     *recorder
	ops     *opCounter
	mu      sync.Mutex
	handled map[int]time.Duration
	runs    map[int]runSpan
}

func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		tr.rec.add("server.handle", op, 0, t0, t0.Add(d))
		tr.mu.Lock()
		tr.handled[op] = d
		tr.mu.Unlock()
	})
}

func (tr *tracer) run(ctx context.Context, cfg sim.RunConfig) (*sim.RunResult, error) {
	op := tr.ops.opOf(cfg)
	rs := runSpan{start: time.Now(), engine: cfg.Engine}
	var res *sim.RunResult
	var err error
	if cfg.Engine == sim.EngineDirectory {
		res, err = tracedDirectoryRun(ctx, tr.rec, op, 0, cfg, cfg.Cache, &rs.layers)
	} else {
		res, err = tracedRun(ctx, tr.rec, op, cfg, &rs.layers)
	}
	rs.end = time.Now()
	tr.rec.add("server.run", op, 0, rs.start, rs.end)
	if err == nil {
		rs.accesses = res.Accesses
		if res.Directory != nil {
			rs.msgs = uint64(res.Directory.Msgs.Total())
		}
	}
	tr.mu.Lock()
	tr.runs[op] = rs
	tr.mu.Unlock()
	return res, err
}

// ledgerPhase is one run of the traced run's fixed schedule on its own
// service.
type ledgerPhase struct {
	st                        phaseStats
	samples                   []sample
	svc                       *service
	tr                        *tracer // nil for an untraced phase
	hits, coalesced, rejected uint64
	seg                       telemetry.CacheStats
}

// runLedgerPhase runs the fixed schedule once and stops the service. svc
// is the set-up's (already warmed) service, or nil to start a fresh one,
// traced or not.
func runLedgerPhase(e *env, t *tally, chk *checker, ts *traceSet, svc *service, ops *opCounter, traced bool, n int,
	newClients func(*service, *opCounter) []*client) (*ledgerPhase, error) {
	lp := &ledgerPhase{}
	if svc == nil {
		ops = &opCounter{byCfg: map[string]int{}}
		var wrap func(http.Handler) http.Handler
		var run func(context.Context, sim.RunConfig) (*sim.RunResult, error)
		if traced {
			lp.tr = &tracer{rec: e.spans, ops: ops, handled: map[int]time.Duration{}, runs: map[int]runSpan{}}
			wrap, run = lp.tr.wrap, lp.tr.run
		}
		var err error
		if svc, err = startService(filepath.Join(e.work, "ledger"+strconv.Itoa(n)), wrap, run); err != nil {
			return nil, err
		}
		if err := warmUp(e, svc, ts, t, chk, ops, false); err != nil {
			return nil, errors.Join(err, svc.stop())
		}
	}
	lp.svc = svc
	ph := startPhase()
	samples, hot := loop(newClients(svc, ops), t, chk, time.Time{}, ledgerRequests)
	lp.st, lp.samples = ph.stop(), samples
	checkSchedule(svc, t, hot)
	lp.hits, lp.coalesced, lp.rejected = svc.counters()
	lp.seg = svc.seg.Stats()
	return lp, svc.stop()
}

// serveLedger runs the fixed schedule four times — untraced, traced,
// traced, untraced, so drift over the run cancels out of the overhead —
// each on its own service, and reports the per-layer ledger of the first
// traced phase. The first phase reuses the set-up's service.
func serveLedger(e *env, m metrics, t *tally, chk *checker, ts *traceSet, svc *service, ops *opCounter, newClients func(*service, *opCounter) []*client) error {
	var phases []*ledgerPhase
	for i, traced := range []bool{false, true, true, false} {
		if i > 0 {
			svc = nil
		}
		lp, err := runLedgerPhase(e, t, chk, ts, svc, ops, traced, i, newClients)
		if err != nil {
			return err
		}
		phases = append(phases, lp)
	}
	var untraced, traced phaseStats
	var coldU, coldT []float64
	for _, lp := range phases {
		cold, _, _ := split(lp.samples)
		if lp.tr == nil {
			untraced, coldU = untraced.add(lp.st), append(coldU, cold...)
		} else {
			traced, coldT = traced.add(lp.st), append(coldT, cold...)
		}
	}
	if len(coldU) == 0 || len(coldT) == 0 {
		return errors.New("no cold request completed")
	}
	overhead(m, untraced, traced, median(coldU), median(coldT), len(coldT))

	lp := phases[1]
	tr, srv := lp.tr, lp.svc.srv
	var submit, httpT, queue, runT, encode, opens, waits, profiles, selfs, dirEngine []float64
	var dirNs, busNs float64
	var dirAcc, busAcc, msgs uint64
	nextNs := map[string]float64{}
	for _, s := range lp.samples {
		tr.mu.Lock()
		h := tr.handled[s.op]
		rs, ran := tr.runs[s.op]
		tr.mu.Unlock()
		httpT = append(httpT, ms(s.lat-h))
		if s.hot {
			submit = append(submit, ms(h))
			continue
		}
		j, ok := srv.Job(s.jobID)
		if !ok || !ran {
			return fmt.Errorf("op %d: no server job or run span", s.op)
		}
		snap := srv.Snapshot(j)
		tr.rec.add("server.queue_wait", s.op, 0, snap.Submitted, *snap.Started)
		tr.rec.add("server.encode", s.op, 0, rs.end, *snap.Finished)
		queue = append(queue, ms(snap.Started.Sub(snap.Submitted)))
		runT = append(runT, ms(rs.end.Sub(rs.start)))
		encode = append(encode, ms(snap.Finished.Sub(rs.end)))
		waits = append(waits, ms(rs.layers.wait))
		if rs.engine == sim.EngineDirectory {
			if _, ok := nextNs[s.cfg.path]; !ok {
				// The placement pass reads the service's cached slabs.
				ns, err := drainNs(s.cfg.path, lp.svc.seg, false)
				if err != nil {
					return err
				}
				nextNs[s.cfg.path] = ns
			}
			self := ms(rs.layers.profile) - nextNs[s.cfg.path]*float64(rs.accesses)/1e6
			opens = append(opens, ms(rs.layers.open)/2)
			profiles = append(profiles, ms(rs.layers.profile))
			selfs = append(selfs, self)
			dirEngine = append(dirEngine, ms(rs.layers.engine))
			dirNs += float64(rs.layers.engine.Nanoseconds())
			dirAcc += rs.accesses
			msgs += rs.msgs
		} else {
			opens = append(opens, ms(rs.layers.open))
			busNs += float64(rs.layers.engine.Nanoseconds())
			busAcc += rs.accesses
		}
	}
	var decodeNs float64
	var decoded uint64
	for i, path := range ts.paths {
		ns, err := drainNs(path, nil, true)
		if err != nil {
			return err
		}
		decodeNs += ns * float64(ts.lengths[i])
		decoded += uint64(ts.lengths[i])
	}
	seg := lp.seg
	m["trace.open_ms"] = median(opens)
	m["trace.decode_wait_ms"] = median(waits)
	m["trace.decode_only_ns_per_access"] = decodeNs / float64(decoded)
	if seg.Hits+seg.Misses > 0 {
		m["trace.segcache_hit_ratio"] = float64(seg.Hits) / float64(seg.Hits+seg.Misses)
	}
	m["trace.segcache_misses"] = float64(seg.Misses)
	m["placement.profile_ms"] = median(profiles)
	m["placement.self_ms"] = median(selfs)
	if dirAcc > 0 {
		m["placement.ns_per_access"] = sum(selfs) * 1e6 / float64(dirAcc)
		m["directory.ns_per_access"] = dirNs / float64(dirAcc)
	}
	m["directory.engine_ms"] = median(dirEngine)
	m["directory.msgs"] = float64(msgs)
	if busAcc > 0 {
		m["snoop.ns_per_access"] = busNs / float64(busAcc)
	}
	m["server.submit_ms"] = median(submit)
	m["server.http_ms"] = median(httpT)
	m["server.queue_wait_ms"] = median(queue)
	m["server.run_ms"] = median(runT)
	m["server.encode_ms"] = median(encode)
	m["server.result_cache_hits"] = float64(lp.hits)
	m["server.coalesced"] = float64(lp.coalesced)
	m["server.rejected"] = float64(lp.rejected)
	lp.st.runtimeMetrics(m, len(lp.samples))
	return nil
}

// tracedRun is sim.Run for a bus config over cfg.TraceFile with the source
// opened here (through cfg.Cache) and timed.
func tracedRun(ctx context.Context, rec *recorder, op int, cfg sim.RunConfig, r *replayOp) (*sim.RunResult, error) {
	path, cache := cfg.TraceFile, cfg.Cache
	var src *timedSource
	cfg.TraceFile, cfg.Cache = "", nil
	cfg.OpenSource = func() (trace.Source, error) {
		s, err := openTimed(path, cache)
		src = s
		return s, err
	}
	t0 := time.Now()
	res, err := sim.Run(ctx, cfg)
	run := time.Since(t0)
	id := rec.add("sim.run", op, 0, t0, t0.Add(run))
	if src != nil {
		rec.add("trace.open", op, id, src.start, src.start.Add(src.open))
		r.open, r.wait, r.engine = src.open, src.wait, run-src.open-src.wait
	}
	return res, err
}
