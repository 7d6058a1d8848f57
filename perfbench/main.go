// Command perfbench is the repository's benchmark. It runs one named
// workload in-process against the simulator's Go entry points, checks every
// output the workload produces, and prints its metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd); with
// --trace 1 a separate traced run reports the per-layer ledger (perLayer).
// See README.md for why each workload exists and which layer each metric
// belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the simulator's own default seed; the committed paper
// tables and the goldens under golden/ were produced with it.
const defaultSeed = 1993

// setupReps is how many times a timed run repeats its set-up; setup_s is
// the median. setup_s is the process CPU time of one set-up: set-up is
// single-threaded and CPU-bound, so on an idle machine it matches the wall
// time, and unlike wall time it does not absorb the hypervisor's steal.
const setupReps = 5

type spec struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload with --trace 0. They are all anchored on work the process did,
// not on wall-clock time: on the shared virtual machines this benchmark
// runs on, hypervisor steal moves wall-clock latency and throughput by more
// than any usable bound between runs of the same code, so those figures
// are printed to standard error for reading but not bounded (README.md has
// the measurements). Keep in step with BENCHMARK.json.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's ledger, reported by every workload with
// --trace 1; a layer the workload does not exercise reads 0. Keep in step
// with BENCHMARK.json.
var perLayer = []spec{
	{"workload.generate_ms", "ms"},
	{"trace.write_ms", "ms"},
	{"sim.prepare_ms", "ms"},
	{"trace.open_ms", "ms"},
	{"trace.decode_wait_ms", "ms"},
	{"trace.decode_only_ns_per_access", "ns"},
	{"trace.segcache_hit_ratio", "ratio"},
	{"trace.segcache_misses", "count"},
	{"placement.profile_ms", "ms"},
	{"placement.self_ms", "ms"},
	{"placement.ns_per_access", "ns"},
	{"directory.engine_ms", "ms"},
	{"directory.ns_per_access", "ns"},
	{"directory.msgs", "count"},
	{"snoop.ns_per_access", "ns"},
	{"timing.ns_per_access", "ns"},
	{"sim.table2_ms", "ms"},
	{"sim.table3_ms", "ms"},
	{"sim.bus_ms", "ms"},
	{"sim.exectime_ms", "ms"},
	{"sim.cpu_util", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.result_cache_hits", "count"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"bench.trace_overhead_cpu_ratio", "ratio"},
	{"bench.trace_overhead_wall_ratio", "ratio"},
}

// env is what every workload is run with.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	length  int    // trace-length override; 0 = the workload's own lengths
	root    string // checkout root: goldens and committed results live here
	work    string // private scratch directory, removed on exit
	nproc   int
	// golden is set when the inputs are the ones the goldens were made
	// from (default seed, default lengths), so outputs are compared with
	// them; otherwise only run-to-run repeats are compared.
	golden bool
	spans  *recorder // non-nil in traced runs
}

// tally counts ops against their failures. A failure is printed to
// standard error with its reason.
type tally struct{ attempted, failed int }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// metrics is one workload's output, by metric name.
type metrics map[string]float64

type workloadFunc func(e *env, t *tally) (metrics, error)

var workloads = map[string]workloadFunc{
	"paper-sweep":  runPaperSweep,
	"trace-replay": runTraceReplay,
	"cohd-serve":   runCohdServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, trace-replay or cohd-serve")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; the traces are generated from it (0 = the simulator's default, 1993)")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger instead of the end-to-end metrics")
		length  = flag.Int("length", 0, "override every trace length (0 = workload defaults); for quick runs, goldens apply only at 0")
		root    = flag.String("root", ".", "checkout root")
		update  = flag.Bool("update-golden", false, "regenerate the workload's golden file at the default seed and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *length, *root, *update, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and writes its result line to out.
func run(name string, seed int64, seconds float64, traced, length int, root string, update bool, out io.Writer) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-sweep, trace-replay or cohd-serve)", name)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if seconds <= 0 || length < 0 {
		return errors.New("--seconds must be positive and --length non-negative")
	}
	if seed == 0 {
		seed = defaultSeed
	}
	// The committed paper tables must be present: a checkout without the
	// repository is not something this benchmark can run in.
	if _, err := os.Stat(filepath.Join(root, "results", "table2.txt")); err != nil {
		return fmt.Errorf("not a checkout of the repository: %w", err)
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "work-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		traced:  traced == 1,
		length:  length,
		root:    root,
		work:    work,
		nproc:   runtime.NumCPU(),
		golden:  seed == defaultSeed && length == 0,
	}
	if update {
		if !e.golden {
			return errors.New("--update-golden needs the default seed and length")
		}
		return updateGolden(name, e)
	}
	if e.traced {
		e.spans = newRecorder()
	}
	var t tally
	m, err := fn(e, &t)
	if err != nil {
		return err
	}
	if e.traced {
		path := filepath.Join(base, "spans-"+name+".jsonl")
		if err := e.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", e.spans.len(), path)
	}
	specs := endToEnd
	if e.traced {
		specs = perLayer
	}
	line, err := resultLine(specs, m, t, !e.traced)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the result JSON with exactly the metrics in specs.
// A workload that reports a name outside specs is a bug; one that leaves a
// name unset is a bug too when every metric must be measured (end to end).
func resultLine(specs []spec, m metrics, t tally, requireAll bool) (string, error) {
	r := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok && requireAll {
			return "", fmt.Errorf("metric %s was not measured", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for k := range m {
		if _, ok := r.Metrics[k]; !ok {
			return "", fmt.Errorf("metric %s is not declared", k)
		}
	}
	if r.Attempted < 1 {
		return "", errors.New("no op was attempted")
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it — the 11th-largest value — and the percentile it sits at. With
// fewer than eleven samples no such percentile exists and the maximum is
// returned instead (percentile 100).
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// stealTicks returns the machine's steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func stealTicks() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal uint64
	for i, x := range f[1:] {
		v, _ := strconv.ParseUint(x, 10, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{steal, total}
}

// rssEvery is the interval of the peak-RSS samples: long enough to span
// several ops of every workload.
const rssEvery = time.Second

// rssSampler samples the process's peak RSS per interval: every tick reads
// VmHWM and then resets it (clear_refs 5), so each sample is the peak of
// its own interval. The median of the samples is steady where one
// whole-run peak is not: a single late GC cycle moves the whole-run peak.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.reset()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				s.sample()
				return
			}
		}
	}()
	return s
}

// reset clears VmHWM. Where the kernel refuses, the samples stay
// cumulative peaks; that is reported once and the run goes on.
func (s *rssSampler) reset() {
	if s.err != nil {
		return
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		s.err = err
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset the peak RSS (%v); each sample is the peak so far\n", err)
	}
}

func (s *rssSampler) sample() {
	if v, err := peakRSSMB(); err == nil {
		s.samples = append(s.samples, v)
	}
	s.reset()
}

// finish stops the sampler and returns the median interval peak.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0, errors.New("no peak RSS sample")
	}
	return median(s.samples), nil
}

// phase measures process CPU, wall time, peak RSS and Go runtime
// allocation over a stretch of ops. It starts from a collected heap, so
// garbage left by set-up or an earlier phase is not charged to it.
type phase struct {
	wall0  time.Time
	cpu0   time.Duration
	mem0   runtime.MemStats
	steal0 [2]uint64
	rss    *rssSampler
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{rss: startRSS()}
	runtime.ReadMemStats(&p.mem0)
	p.steal0 = stealTicks()
	p.wall0, p.cpu0 = time.Now(), cpuTime()
	return p
}

// phaseStats is what a phase measured; per-op figures divide by ops.
type phaseStats struct {
	wall, cpu             time.Duration
	allocMB, gcs, pauseMS float64
	steal                 float64 // share of the machine's CPU time the hypervisor took
	rssMB                 float64 // median per-interval peak RSS
	rssErr                error
}

func (p *phase) stop() phaseStats {
	wall, cpu := time.Since(p.wall0), cpuTime()-p.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := stealTicks()
	steal := 0.0
	if d := st[1] - p.steal0[1]; d > 0 {
		steal = float64(st[0]-p.steal0[0]) / float64(d)
	}
	rss, rssErr := p.rss.finish()
	return phaseStats{
		rssMB:   rss,
		rssErr:  rssErr,
		steal:   steal,
		wall:    wall,
		cpu:     cpu,
		allocMB: float64(m.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20),
		gcs:     float64(m.NumGC - p.mem0.NumGC),
		pauseMS: float64(m.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6,
	}
}

// add sums two phases' measurements.
func (s phaseStats) add(o phaseStats) phaseStats {
	s.wall += o.wall
	s.cpu += o.cpu
	s.allocMB += o.allocMB
	s.gcs += o.gcs
	s.pauseMS += o.pauseMS
	return s
}

// runtimeMetrics fills the per-op Go runtime ledger from a phase.
func (s phaseStats) runtimeMetrics(m metrics, ops int) {
	n := float64(ops)
	m["runtime.alloc_mb_per_op"] = s.allocMB / n
	m["runtime.gc_cycles_per_op"] = s.gcs / n
	m["runtime.gc_pause_ms_per_op"] = s.pauseMS / n
}

// overhead reports the traced phases' CPU and wall p50 against the
// untraced phases that ran the same ops.
func overhead(m metrics, untraced, traced phaseStats, untracedP50, tracedP50 float64, ops int) {
	m["bench.trace_overhead_cpu_ratio"] = float64(traced.cpu) / float64(untraced.cpu)
	m["bench.trace_overhead_wall_ratio"] = tracedP50 / untracedP50
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead over %d ops: cpu %.3fx, wall p50 %.3fx\n",
		ops, m["bench.trace_overhead_cpu_ratio"], m["bench.trace_overhead_wall_ratio"])
}

// wallReport prints an op kind's wall-clock figures: the median, the
// highest percentile with at least ten samples beyond it (the maximum when
// there are fewer than eleven samples), and the sample count.
func wallReport(kind string, lat []float64) {
	v, pct := tail(lat)
	fmt.Fprintf(os.Stderr, "perfbench: wall %s: p50 %.3f ms, p%.1f %.3f ms, %d samples\n", kind, median(lat), pct, v, len(lat))
}

// finishEndToEnd sets the end-to-end metrics from the set-up times and
// the timed phase, and prints the phase's wall-clock throughput.
func finishEndToEnd(m metrics, setups []float64, st phaseStats, ops int, accesses uint64) error {
	if st.rssErr != nil {
		return st.rssErr
	}
	fmt.Fprintf(os.Stderr, "perfbench: timed phase %.1f s, %d ops (%.3f/s), %.4g simulated accesses/s, cpu %.2f cores, steal %.1f%%\n",
		st.wall.Seconds(), ops, float64(ops)/st.wall.Seconds(), float64(accesses)/st.wall.Seconds(),
		float64(st.cpu)/float64(st.wall), 100*st.steal)
	m["setup_s"] = median(setups)
	m["cpu_ms_per_op"] = ms(st.cpu) / float64(ops)
	m["peak_rss_mb"] = st.rssMB
	return nil
}
