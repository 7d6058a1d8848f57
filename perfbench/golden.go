package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"migratory/internal/sim"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// nodes is the paper's processor count, used for every trace.
const nodes = 16

// checker compares each output with its golden (when the inputs are the
// goldens' inputs) and every repeat of a key with the key's first output.
// It is safe for concurrent use.
type checker struct {
	golden map[string]string // nil: no golden applies
	mu     sync.Mutex
	seen   map[string]string
}

// newChecker loads golden/<name>.json when e's inputs match the goldens'.
func newChecker(e *env, name string) (*checker, error) {
	c := &checker{seen: map[string]string{}}
	if !e.golden {
		return c, nil
	}
	b, err := os.ReadFile(goldenPath(e, name))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &c.golden); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(e, name), err)
	}
	return c, nil
}

func goldenPath(e *env, name string) string {
	return filepath.Join(e.root, "perfbench", "golden", name+".json")
}

// fingerprint is a short content hash of an output; goldens store these
// instead of whole results to stay small.
func fingerprint(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// check returns an error when out differs from key's golden or from key's
// first output in this run.
func (c *checker) check(key string, out []byte) error {
	fp := fingerprint(out)
	if c.golden != nil {
		want, ok := c.golden[key]
		if !ok {
			return fmt.Errorf("%s: no golden", key)
		}
		if want != fp {
			return fmt.Errorf("%s: output %s differs from golden %s", key, fp, want)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != fp {
		return fmt.Errorf("%s: output %s differs from its first run %s", key, fp, prev)
	}
	c.seen[key] = fp
	return nil
}

// traceSet is one set-up's trace files, one per built-in application.
type traceSet struct {
	apps    []string
	paths   []string
	lengths []int
	gen     time.Duration // total generation time
	write   time.Duration // total .mtr encode and write time
}

// writeTraces generates every built-in application's trace, length =
// scale × the profile default (or e.length when set), and writes each as
// an indexed v3 .mtr file under dir. It runs on one goroutine and holds
// one chunk of accesses at a time, timing generation and writing apart.
func writeTraces(e *env, dir string, scale int) (*traceSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ts := &traceSet{}
	for _, prof := range workload.Profiles() {
		n := scale * prof.DefaultLength
		if e.length > 0 {
			n = e.length
		}
		path := filepath.Join(dir, fileName(prof.Name)+".mtr")
		if err := ts.add(path, prof, e.seed, n); err != nil {
			return nil, err
		}
		ts.apps = append(ts.apps, prof.Name)
		ts.paths = append(ts.paths, path)
		ts.lengths = append(ts.lengths, n)
	}
	return ts, nil
}

// genChunk is how many accesses writeTraces generates before writing them.
const genChunk = 1 << 16

// add generates n accesses of prof in chunks (Generator.Generate
// continues the same stream, so the file equals workload.Generate's trace)
// and encodes them to path.
func (ts *traceSet) add(path string, prof workload.Profile, seed int64, n int) error {
	g, err := workload.NewGenerator(prof, nodes, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f, trace.Header{BlockSize: 16, PageSize: sim.PageSize, Nodes: nodes})
	for left := n; left > 0; left -= genChunk {
		t0 := time.Now()
		accs := g.Generate(min(left, genChunk))
		t1 := time.Now()
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				f.Close()
				return err
			}
		}
		ts.gen, ts.write = ts.gen+t1.Sub(t0), ts.write+time.Since(t1)
	}
	t0 := time.Now()
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	err = f.Close()
	ts.write += time.Since(t0)
	return err
}

// fileName maps an application name to a file name ("Locus Route" has a
// space).
func fileName(app string) string {
	b := []byte(app)
	for i, c := range b {
		if c == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}

// canonical runs cfg in-process and returns its result's canonical JSON,
// the bytes cohd serves and caches.
func canonical(cfg sim.RunConfig) ([]byte, error) {
	res, err := sim.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// updateGolden regenerates golden/<name>.json from the simulator's current
// outputs at the default seed. Only run it after a change that is meant to
// alter simulation results.
func updateGolden(name string, e *env) error {
	var keys []string
	var cfgs []sim.RunConfig
	switch name {
	case "trace-replay":
		ts, err := writeTraces(e, filepath.Join(e.work, "traces"), replayScale)
		if err != nil {
			return err
		}
		for _, c := range replayConfigs(ts) {
			keys, cfgs = append(keys, c.key), append(cfgs, c.cfg)
		}
	case "cohd-serve":
		ts, err := writeTraces(e, filepath.Join(e.work, "traces"), 1)
		if err != nil {
			return err
		}
		for _, c := range append(serveWarmups(ts), serveUniverse(ts)...) {
			keys, cfgs = append(keys, c.key), append(cfgs, c.cfg)
		}
	default:
		return fmt.Errorf("%s has no golden file (paper-sweep compares with results/*.txt)", name)
	}
	cache := trace.NewSegmentCache(trace.DefaultTraceCacheBytes)
	out := make(map[string]string, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, e.nproc)
	next := make(chan int)
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg := cfgs[i]
				cfg.Cache = cache
				b, err := canonical(cfg)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", keys[i], err)
					return
				}
				mu.Lock()
				out[keys[i]] = fingerprint(b)
				mu.Unlock()
			}
		}()
	}
	var err error
feed:
	for i := range keys {
		select {
		case next <- i:
		case err = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err == nil && len(errs) > 0 {
		err = <-errs
	}
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ") // keys come out sorted
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d goldens written\n", len(out))
	return os.WriteFile(goldenPath(e, name), append(b, '\n'), 0o644)
}
