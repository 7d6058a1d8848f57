package migratory

// Equivalence tests for the shared decoded-segment cache (TraceSegmentCache):
// a cached replay must be bit-identical to an uncached one across both
// untimed engines, several policies and protocols, sequential and sharded
// execution, and any decode width — the cache is a throughput knob, never
// a semantics knob. Replay decodes on one worker per GOMAXPROCS, so the
// tests vary GOMAXPROCS to vary the decode width. Run under -race (make race / make ci) these double as
// the concurrency tests for the pin/eviction machinery.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"migratory/internal/trace"
)

// writeEquivTraceFile materializes the shared equivalence workload as an
// MTR3 file with small segments, so even this modest trace spans dozens of
// cacheable units.
func writeEquivTraceFile(t testing.TB, segBytes int) (string, []Access) {
	t.Helper()
	accs, err := GenerateWorkload("MP3D", 16, 1993, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriterOptions(&buf, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16},
		trace.WriterOptions{SegmentBytes: segBytes})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "equiv.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, accs
}

// resultJSON runs cfg and returns the canonical JSON encoding of its
// result — the same bytes the cohd result cache stores, so equality here is
// the service's notion of bit-identity.
func resultJSON(t *testing.T, cfg RunConfig) string {
	t.Helper()
	res, err := Run(nil, cfg)
	if err != nil {
		t.Fatalf("%s/%s%s shards=%d: %v",
			cfg.Engine, cfg.Policy, cfg.Protocol, cfg.Shards, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// atProcs runs fn with GOMAXPROCS set to n (and so n trace-decode
// workers), restoring the previous setting afterwards.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestSegmentCacheRunEquivalence sweeps {directory, bus} engines, three
// variants each, shards {1, 8}, and decode widths {1, 4}, comparing every cached
// cell against its uncached twin. One cache is shared across the whole
// matrix — exactly how a sweep or a cohd process uses it — and must see
// both traffic and reuse by the end.
func TestSegmentCacheRunEquivalence(t *testing.T) {
	path, _ := writeEquivTraceFile(t, 4<<10)
	cache := NewTraceSegmentCache(256 << 20)

	cells := []struct {
		engine, policy, protocol string
	}{
		{EngineDirectory, "conventional", ""},
		{EngineDirectory, "basic", ""},
		{EngineDirectory, "aggressive", ""},
		{EngineBus, "", "mesi"},
		{EngineBus, "", "adaptive"},
		{EngineBus, "", "berkeley"},
	}
	for _, cell := range cells {
		for _, shards := range []int{1, 8} {
			for _, decoders := range []int{1, 4} {
				cfg := RunConfig{
					Engine:     cell.engine,
					TraceFile:  path,
					Nodes:      16,
					CacheBytes: 16 << 10, // finite per-node caches: eviction paths run too
					Policy:     cell.policy,
					Protocol:   cell.protocol,
					Shards:     shards,
				}
				var want, got string
				atProcs(decoders, func() {
					want = resultJSON(t, cfg)
					cfg.Cache = cache
					got = resultJSON(t, cfg)
				})
				if got != want {
					t.Errorf("%s/%s%s shards=%d decoders=%d: cached result diverged\n got %s\nwant %s",
						cell.engine, cell.policy, cell.protocol, shards, decoders, got, want)
				}
			}
		}
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("the cached matrix never decoded through the cache")
	}
	if st.Hits == 0 {
		t.Fatal("the cached matrix never reused a decoded segment")
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after every run closed its source", st.PinnedBytes)
	}
}

// TestSegmentCacheLegacyBypass pins the v1/v2 refusal: the committed
// legacy fixtures (MP3D, 2,000 accesses, 16 nodes, seed 1993) still decode
// sequentially to the generator's accesses, but Run rejects them with
// ErrTraceNoIndex and the conversion command, and a configured cache sees
// zero traffic — no keys, no misses, no residency.
func TestSegmentCacheLegacyBypass(t *testing.T) {
	accs, err := GenerateWorkload("MP3D", 16, 1993, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v1", "v2"} {
		path := filepath.Join("testdata", "legacy_"+name+".mtr")
		src, err := OpenTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(src)
		src.Close()
		if err != nil || !reflect.DeepEqual(got, accs) {
			t.Fatalf("%s fixture does not decode to the generated MP3D trace (%d accesses, %v)", name, len(got), err)
		}

		cache := NewTraceSegmentCache(256 << 20)
		cfg := RunConfig{
			Engine:    EngineDirectory,
			TraceFile: path,
			Nodes:     16,
			Policy:    "basic",
			Shards:    2,
			Cache:     cache,
		}
		if _, err := Run(nil, cfg); !errors.Is(err, ErrTraceNoIndex) || !strings.Contains(err.Error(), "tracegen -in") {
			t.Errorf("%s: Run = %v, want ErrTraceNoIndex naming tracegen -in", name, err)
		}
		if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 ||
			st.ResidentBytes != 0 || st.SingleFlightJoins != 0 || st.Evictions != 0 {
			t.Errorf("%s: unindexed trace touched the segment cache: %+v", name, st)
		}
	}
}

// TestSegmentCacheEvictionUnderLoad replays MP3D through a cache sized for
// only ~2 of its segments while 8 engine shards pull from 4 parallel
// decoders — constant eviction and re-decode under concurrency. Results
// must stay bit-identical; under -race this is the eviction-path
// concurrency test.
func TestSegmentCacheEvictionUnderLoad(t *testing.T) {
	path, _ := writeEquivTraceFile(t, 2<<10)
	src, err := OpenIndexedTraceFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := src.(*IndexedTraceSource).Index()
	maxCount := int64(0)
	for _, seg := range idx.Segments {
		if int64(seg.Count) > maxCount {
			maxCount = int64(seg.Count)
		}
	}
	nsegs := len(idx.Segments)
	src.Close()
	if nsegs < 8 {
		t.Fatalf("trace spans only %d segments; the eviction test needs churn", nsegs)
	}

	cache := NewTraceSegmentCache(2 * maxCount * 16) // room for ~2 decoded segments
	cfg := RunConfig{
		Engine:    EngineDirectory,
		TraceFile: path,
		Nodes:     16,
		Policy:    "aggressive",
		Shards:    8,
	}
	atProcs(4, func() {
		want := resultJSON(t, cfg)
		cfg.Cache = cache
		for i := 0; i < 3; i++ {
			if got := resultJSON(t, cfg); got != want {
				t.Fatalf("replay %d under eviction pressure diverged", i)
			}
		}
	})
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("cache sized for 2 of %d segments never evicted: %+v", nsegs, st)
	}
	if st.ResidentBytes > st.CapBytes {
		t.Fatalf("resident %d exceeds capacity %d with no pins outstanding", st.ResidentBytes, st.CapBytes)
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned", st.PinnedBytes)
	}
}
