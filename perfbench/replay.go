package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/trace"
)

// replayScale is the trace-replay traces' length as a multiple of each
// profile's default: 1.6–2.4M accesses, the scale of a single external-
// trace run.
const replayScale = 4

// namedConfig is one run the benchmark issues, keyed for the goldens.
type namedConfig struct {
	key      string
	cfg      sim.RunConfig
	path     string // the trace file the run replays
	accesses uint64 // its length
}

// replayConfigs is one trace-replay cycle: two directory runs per trace,
// covering every policy and four cache sizes.
func replayConfigs(ts *traceSet) []namedConfig {
	policies := []string{"conventional", "conservative", "basic", "aggressive"}
	caches := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}
	var out []namedConfig
	for i, app := range ts.apps {
		for _, k := range []int{i, i + 2} {
			pol, cb := policies[k%4], caches[(i+k/2)%4]
			out = append(out, namedConfig{
				key:      fmt.Sprintf("%s/%s/%d", app, pol, cb),
				cfg:      sim.RunConfig{Engine: sim.EngineDirectory, TraceFile: ts.paths[i], Policy: pol, CacheBytes: cb},
				path:     ts.paths[i],
				accesses: uint64(ts.lengths[i]),
			})
		}
	}
	return out
}

// pageGeometry is the geometry the usage-placement pass profiles with;
// placement is page-granular, so the block size is irrelevant.
var pageGeometry = memory.MustGeometry(16, sim.PageSize)

// replayOp is what one trace-replay op measured.
type replayOp struct {
	lat, hot time.Duration
	accesses uint64
	msgs     uint64
	// Traced ops only.
	open, profile, wait, engine time.Duration
}

// runTraceReplay is the external-trace library path: single sim.Run calls
// over v3 .mtr files, one at a time, each paying open/index, the placement
// profiling pass, two full decodes and the directory engine. No segment
// cache is attached.
func runTraceReplay(e *env, t *tally) (metrics, error) {
	m := metrics{}
	reps := setupReps
	if e.traced {
		reps = 1
	}
	var ts *traceSet
	var setups, gens, writes []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0, c0 := time.Now(), cpuTime()
		var err error
		if ts, err = writeTraces(e, filepath.Join(e.work, "traces"), replayScale); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		gens, writes = append(gens, ms(ts.gen)), append(writes, ms(ts.write))
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.3f s wall, %.3f s CPU (generate %.0f ms, write %.0f ms)\n",
			i, time.Since(t0).Seconds(), setups[i], gens[i], writes[i])
	}
	chk, err := newChecker(e, "trace-replay")
	if err != nil {
		return nil, err
	}
	cycle := replayConfigs(ts)
	opID := 0
	do := func(c namedConfig, traced bool) (replayOp, bool) {
		t.attempted++
		opID++
		r, err := replay(e, c, opID, traced, chk)
		if err != nil {
			t.fail("trace-replay %s: %v", c.key, err)
			return r, false
		}
		return r, true
	}

	// Warm-up: one run per trace.
	for i := 0; i < len(cycle); i += 2 {
		do(cycle[i], false)
	}

	if e.traced {
		m["workload.generate_ms"] = median(gens)
		m["trace.write_ms"] = median(writes)
		return m, replayLedger(m, cycle, do)
	}

	// Whole cycles only, so every run sees the same mix of traces and
	// configs; another cycle starts only while it is expected to end in
	// time.
	var lat, hot []float64
	var accesses uint64
	ph := startPhase()
	for n := 0; ; n++ {
		if el := time.Since(ph.wall0); n >= 1 && el+el/time.Duration(n) > e.seconds {
			break
		}
		for _, c := range cycle {
			if r, ok := do(c, false); ok {
				lat, hot = append(lat, ms(r.lat)), append(hot, ms(r.hot))
				accesses += r.accesses
			}
		}
	}
	st := ph.stop()
	if len(lat) == 0 {
		return nil, fmt.Errorf("every trace-replay op failed")
	}
	wallReport("run", lat)
	wallReport("validate+digest+encode", hot)

	return m, finishEndToEnd(m, setups, st, len(lat), accesses)
}

// replay runs one config and delivers its result (the hot op, timed
// apart).
//
// A traced op runs the same steps from this package so each layer can be
// timed: the trace open, the usage-placement pass (placement.
// UsageBasedSource, handed to the run as PlacementPolicy), and the run
// itself over a source that times its NextBatch calls.
func replay(e *env, c namedConfig, id int, traced bool, chk *checker) (replayOp, error) {
	var r replayOp
	rec := e.spans
	if !traced {
		rec = nil
	}
	root := rec.begin("trace-replay.op", id, 0)
	t0 := time.Now()
	var res *sim.RunResult
	var err error
	if traced {
		res, err = tracedDirectoryRun(context.Background(), rec, id, root, c.cfg, nil, &r)
	} else {
		res, err = sim.Run(context.Background(), c.cfg)
	}
	r.lat = time.Since(t0)
	rec.end(root)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	err = deliver(c, res, chk)
	r.hot = time.Since(t1)
	r.accesses, r.msgs = res.Accesses, uint64(res.Directory.Msgs.Total())
	return r, err
}

// deliver is the hot op: what identifying and encoding an already-computed
// result costs the library — Validate, Digest and the canonical JSON
// encoding, the steps cohd's result cache adds around a stored result —
// followed by the output checks.
func deliver(c namedConfig, res *sim.RunResult, chk *checker) error {
	if err := c.cfg.Validate(); err != nil {
		return err
	}
	if _, err := c.cfg.Digest(); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if res.Accesses != c.accesses {
		return fmt.Errorf("simulated %d accesses of a %d-access trace", res.Accesses, c.accesses)
	}
	return chk.check(c.key, out)
}

// tracedDirectoryRun is sim.Run for a directory config over cfg.TraceFile,
// split into its layers: open, usage-placement profiling pass, and the run
// proper over a timed source. cache is the segment cache both opens use
// (nil for none). The layer times land in r.
func tracedDirectoryRun(ctx context.Context, rec *recorder, id, parent int, cfg sim.RunConfig, cache *trace.SegmentCache, r *replayOp) (*sim.RunResult, error) {
	path := cfg.TraceFile
	src, err := openTimed(path, cache)
	if err != nil {
		return nil, err
	}
	rec.add("trace.open", id, parent, src.start, src.start.Add(src.open))
	t0 := time.Now()
	pl, err := placement.UsageBasedSource(src, pageGeometry, nodes)
	r.profile = time.Since(t0)
	rec.add("placement.profile", id, parent, t0, t0.Add(r.profile))
	src.Close()
	if err != nil {
		return nil, err
	}
	var simSrc *timedSource
	cfg.TraceFile, cfg.Cache, cfg.PlacementPolicy = "", nil, pl
	cfg.OpenSource = func() (trace.Source, error) {
		s, err := openTimed(path, cache)
		simSrc = s
		return s, err
	}
	t1 := time.Now()
	res, err := sim.Run(ctx, cfg)
	run := time.Since(t1)
	runID := rec.add("sim.run", id, parent, t1, t1.Add(run))
	if simSrc != nil {
		rec.add("trace.open", id, runID, simSrc.start, simSrc.start.Add(simSrc.open))
		r.open = src.open + simSrc.open
		r.wait = simSrc.wait
		r.engine = run - simSrc.open - simSrc.wait
	}
	return res, err
}

// replayLedger runs the cycle four times — untraced, traced, traced,
// untraced, so drift over the run cancels out of the overhead — and
// reports the per-layer ledger of the first traced cycle.
func replayLedger(m metrics, cycle []namedConfig, do func(namedConfig, bool) (replayOp, bool)) error {
	var untraced, traced phaseStats
	var latU, latT []float64
	var ops []replayOp
	for i, tr := range []bool{false, true, true, false} {
		ph := startPhase()
		var cycleOps []replayOp
		for _, c := range cycle {
			if r, ok := do(c, tr); ok {
				cycleOps = append(cycleOps, r)
			}
		}
		st := ph.stop()
		if len(cycleOps) != len(cycle) {
			return fmt.Errorf("the per-layer ledger needs every op of the cycle to succeed")
		}
		for _, r := range cycleOps {
			if tr {
				latT = append(latT, ms(r.lat))
			} else {
				latU = append(latU, ms(r.lat))
			}
		}
		if tr {
			traced = traced.add(st)
		} else {
			untraced = untraced.add(st)
		}
		if i == 1 {
			ops = cycleOps
			st.runtimeMetrics(m, len(ops))
		}
	}
	overhead(m, untraced, traced, median(latU), median(latT), len(latT))

	// The placement pass reads per access through Next, which cannot be
	// timed per call; its self time is its span minus a Next-only drain of
	// the same file.
	var opens, waits, profiles, selfs, engines []float64
	var accesses, msgs uint64
	var engineNs float64
	nextNs := map[string]float64{}
	for i, r := range ops {
		c := cycle[i]
		if _, ok := nextNs[c.path]; !ok {
			ns, err := drainNs(c.path, nil, false)
			if err != nil {
				return err
			}
			nextNs[c.path] = ns
		}
		self := ms(r.profile) - nextNs[c.path]*float64(c.accesses)/1e6
		opens = append(opens, ms(r.open)/2)
		waits = append(waits, ms(r.wait))
		profiles = append(profiles, ms(r.profile))
		selfs = append(selfs, self)
		engines = append(engines, ms(r.engine))
		engineNs += float64(r.engine.Nanoseconds())
		accesses += r.accesses
		msgs += r.msgs
	}
	var decodeNs float64
	var decoded uint64
	for i := 0; i < len(cycle); i += 2 {
		ns, err := drainNs(cycle[i].path, nil, true)
		if err != nil {
			return err
		}
		decodeNs += ns * float64(cycle[i].accesses)
		decoded += cycle[i].accesses
	}
	m["trace.open_ms"] = median(opens)
	m["trace.decode_wait_ms"] = median(waits)
	m["trace.decode_only_ns_per_access"] = decodeNs / float64(decoded)
	m["placement.profile_ms"] = median(profiles)
	m["placement.self_ms"] = median(selfs)
	m["placement.ns_per_access"] = sum(selfs) * 1e6 / float64(accesses)
	m["directory.engine_ms"] = median(engines)
	m["directory.ns_per_access"] = engineNs / float64(accesses)
	m["directory.msgs"] = float64(msgs)
	return nil
}
