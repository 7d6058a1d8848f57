package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"migratory/internal/sim"
)

// smallCfg is a run small enough to execute for real in tests.
func smallCfg(seed int64) sim.RunConfig {
	return sim.RunConfig{
		Engine:   sim.EngineDirectory,
		Workload: "MP3D",
		Policy:   "basic",
		Length:   5_000,
		Seed:     seed,
	}
}

// newTestServer builds a server whose lifecycle the test owns.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// blockingRun returns a RunFunc stub that parks until release is closed
// (or the run's context ends), counting nothing and returning an empty
// result.
func blockingRun(release <-chan struct{}) func(context.Context, sim.RunConfig) (*sim.RunResult, error) {
	return func(ctx context.Context, _ sim.RunConfig) (*sim.RunResult, error) {
		select {
		case <-release:
			return &sim.RunResult{Engine: sim.EngineDirectory, Accesses: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.String()
}

// TestSubmitPollResult drives the golden HTTP path — submit, poll, fetch
// the result — and checks the served bytes match a direct sim.Run of the
// same config.
func TestSubmitPollResult(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallCfg(1)
	body, _ := json.Marshal(submitRequest{Config: cfg})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.ID == "" || snap.Status != StatusQueued && snap.Status != StatusRunning && snap.Status != StatusDone {
		t.Fatalf("bad submit snapshot: %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/v1/runs/" + snap.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("wait status = %d: %s", resp.StatusCode, b)
	}
	var done Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("final status = %s (%s)", done.Status, done.Error)
	}

	direct, err := sim.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := json.Marshal(direct)
	if got, want := compactJSON(t, done.Result), string(dj); got != want {
		t.Fatalf("daemon result diverges from direct run:\n%s\n%s", got, want)
	}

	// The list endpoint knows the job too.
	resp, err = http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs          []Snapshot `json:"runs"`
		QueueCapacity int        `json:"queue_capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != snap.ID || list.QueueCapacity != 64 {
		t.Fatalf("bad list: %+v", list)
	}
}

// TestQueueFull429 saturates a deterministic single-worker server: one run
// occupies the worker, Queue more fill the queue, and the next submission
// must be rejected with 429 and a Retry-After header.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, Queue: 2, RunFunc: blockingRun(release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed int64) *http.Response {
		body, _ := json.Marshal(submitRequest{Config: smallCfg(seed), NoCache: true})
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the worker, then wait until it has dequeued (leaving the
	// queue empty) before filling the queue deterministically.
	first := submit(1)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", first.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	for seed := int64(2); seed <= 3; seed++ {
		resp := submit(seed)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued submit seed=%d = %d", seed, resp.StatusCode)
		}
	}

	over := submit(4)
	defer over.Body.Close()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(over.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body: %+v, %v", e, err)
	}

	close(release) // let the admitted runs finish; Cleanup drains
}

// TestDeadline504 checks a run that outlives its requested deadline is
// reported as failed with context.DeadlineExceeded, surfaced over HTTP as
// 504.
func TestDeadline504(t *testing.T) {
	never := make(chan struct{})
	defer close(never)
	s := newTestServer(t, Config{Workers: 1, RunFunc: blockingRun(never)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(submitRequest{Config: smallCfg(1), Timeout: "30ms", Wait: true})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, b)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != StatusFailed || !strings.Contains(snap.Error, "deadline") {
		t.Fatalf("snapshot: %+v", snap)
	}

	// In-process, the sentinel itself survives.
	j, ok := s.Job(snap.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if err := s.Snapshot(j).Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job error = %v, want DeadlineExceeded", err)
	}
}

// TestDrain checks the SIGTERM path: after Shutdown begins, new
// submissions are refused (ErrDraining / HTTP 503) while queued and
// in-flight jobs run to completion before Shutdown returns.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, Queue: 4, RunFunc: blockingRun(release)})

	var jobs []*Job
	for seed := int64(1); seed <= 3; seed++ {
		j, err := s.Submit(smallCfg(seed), 0, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Draining must refuse new work (poll: the flag flips inside Shutdown).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(smallCfg(99), 0, true)
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Submit after Shutdown = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}

	// The HTTP layer maps it to 503 + Retry-After.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(submitRequest{Config: smallCfg(98)})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining submit = %d (Retry-After %q), want 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	for i, j := range jobs {
		if snap := s.Snapshot(j); snap.Status != StatusDone {
			t.Fatalf("job %d finished drain as %s (%s)", i, snap.Status, snap.Error)
		}
	}
}

// TestShutdownDeadlineAborts checks the drain timeout: when the drain
// context expires, in-flight runs are cancelled and Shutdown reports the
// context error.
func TestShutdownDeadlineAborts(t *testing.T) {
	never := make(chan struct{})
	defer close(never)
	s := newTestServer(t, Config{Workers: 1, RunFunc: blockingRun(never)})
	j, err := s.Submit(smallCfg(1), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if snap := s.Snapshot(j); snap.Status != StatusFailed || !errors.Is(snap.Err(), context.Canceled) {
		t.Fatalf("aborted job: %+v (err %v)", snap, snap.Err())
	}
}

// TestCacheHitAndMetrics runs the same config twice against a real cache
// directory: the repeat must be served as an already-done cache hit with
// byte-identical results, and the hit must show in /metrics.
func TestCacheHitAndMetrics(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})

	cfg := smallCfg(1)
	j1, err := s.Submit(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	first := s.Snapshot(j1)
	if first.Status != StatusDone || first.CacheHit {
		t.Fatalf("first run: %+v", first)
	}

	j2, err := s.Submit(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	case <-time.After(time.Second):
		t.Fatal("cache hit was not immediate")
	}
	second := s.Snapshot(j2)
	if second.Status != StatusDone || !second.CacheHit {
		t.Fatalf("second run not a cache hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result bytes diverge from the original")
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir entries: %v, %v", entries, err)
	}

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	m := buf.String()
	for _, want := range []string{
		"cohd_cache_hits_total 1",
		"cohd_cache_misses_total 1",
		"cohd_runs_completed_total 1",
		"cohd_request_wall_seconds_count 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestSubmitLegacyTrace422 checks that a wait:true run over a trace file
// no replay path reads (a committed v2 fixture) is answered as the
// caller's input error: 422, with the conversion command in the body, not
// a 500 server fault.
func TestSubmitLegacyTrace422(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path, err := filepath.Abs(filepath.Join("..", "..", "testdata", "legacy_v2.mtr"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.RunConfig{Engine: sim.EngineDirectory, TraceFile: path, Policy: "basic"}
	body, _ := json.Marshal(submitRequest{Config: cfg, Wait: true})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "tracegen -in") {
		t.Fatalf("body lacks the conversion hint: %s", b)
	}
}

// TestSubmitDecodersField400 checks that the retired "decoders" field is
// an unknown field to the strict request decoder: 400, not a silent no-op.
func TestSubmitDecodersField400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"config":{"engine":"directory","workload":"MP3D","policy":"basic","length":5000,"decoders":2},"wait":true}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, b)
	}
}

// TestCoalescing checks that an identical in-flight submission returns the
// same job instead of queueing a duplicate run.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, Queue: 4, RunFunc: blockingRun(release)})
	cfg := smallCfg(1)
	j1, err := s.Submit(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions were not coalesced")
	}
	close(release)
	<-j1.Done()
}

// TestSubmitValidation checks that a bad config is rejected before
// admission with the same typed error (and message) a direct sim.Run
// produces.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	bad := sim.RunConfig{Engine: "quantum", Workload: "MP3D"}
	_, err := s.Submit(bad, 0, false)
	if !errors.Is(err, sim.ErrUnknownEngine) {
		t.Fatalf("Submit = %v, want ErrUnknownEngine", err)
	}
	if want := bad.Validate().Error(); err.Error() != want {
		t.Fatalf("message drift: %q vs %q", err, want)
	}
}

// TestSubmitNegativeLength400 checks that a config Validate rejects never
// reaches a worker over HTTP: a negative trace length answers 400 with the
// validation message instead of running (and caching) an empty result.
func TestSubmitNegativeLength400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallCfg(1)
	cfg.Length = -5
	body, _ := json.Marshal(submitRequest{Config: cfg, Wait: true})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, b)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if want := cfg.Validate().Error(); e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}
}

// TestManifestPerRequest checks one sealed manifest lands per executed
// request, named by pid and job id.
func TestManifestPerRequest(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, ManifestDir: dir})
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		j, err := s.Submit(smallCfg(seed), 0, true)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID())
	}
	for _, id := range ids {
		pat := filepath.Join(dir, fmt.Sprintf("manifest_cohd_*_%s.json", id))
		m, err := filepath.Glob(pat)
		if err != nil || len(m) != 1 {
			t.Fatalf("manifest for %s: %v, %v", id, m, err)
		}
		blob, err := os.ReadFile(m[0])
		if err != nil {
			t.Fatal(err)
		}
		var man struct {
			Outcome  string         `json:"outcome"`
			Extra    map[string]any `json:"extra"`
			Accesses uint64         `json:"accesses"`
		}
		if err := json.Unmarshal(blob, &man); err != nil {
			t.Fatal(err)
		}
		if man.Outcome != "ok" || man.Extra["run_id"] != id || man.Accesses == 0 {
			t.Fatalf("manifest %s: %+v", m[0], man)
		}
	}
}

// TestRunPanicFailsOnlyItsJob checks worker panic isolation: a run that
// panics ends its own job as failed (HTTP 500, the failed metric, a
// manifest carrying the panic as its outcome), and the same single worker
// then serves a normal job.
func TestRunPanicFailsOnlyItsJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, ManifestDir: dir,
		RunFunc: func(ctx context.Context, cfg sim.RunConfig) (*sim.RunResult, error) {
			if cfg.Seed == 1 {
				panic("engine invariant broken")
			}
			return sim.Run(ctx, cfg)
		}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed int64) (int, Snapshot) {
		t.Helper()
		body, _ := json.Marshal(submitRequest{Config: smallCfg(seed), Wait: true})
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, snap
	}

	code, snap := post(1)
	if code != http.StatusInternalServerError || snap.Status != StatusFailed ||
		!strings.Contains(snap.Error, "engine invariant broken") {
		t.Fatalf("panicking run: status %d, snapshot %+v", code, snap)
	}
	m, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("manifest_cohd_*_%s.json", snap.ID)))
	if err != nil || len(m) != 1 {
		t.Fatalf("manifest for %s: %v, %v", snap.ID, m, err)
	}
	blob, err := os.ReadFile(m[0])
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(blob, &man); err != nil || !strings.Contains(man.Outcome, "panicked") {
		t.Fatalf("manifest outcome %q (%v)", man.Outcome, err)
	}

	if code, snap := post(2); code != http.StatusOK || snap.Status != StatusDone {
		t.Fatalf("run after the panic: status %d, snapshot %+v", code, snap)
	}
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	for _, want := range []string{"cohd_runs_failed_total 1", "cohd_runs_completed_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
