package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"migratory/internal/trace"
	"migratory/internal/workload"
)

// writeV3Trace materializes a workload into an indexed (v3) .mtr file with
// deliberately small segments, so parallel decode has real structure to
// chew on even at test-sized trace lengths.
func writeV3Trace(t *testing.T, app string, nodes, length int) string {
	t.Helper()
	prof, err := workload.ProfileByName(app)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Generate(prof, nodes, 1993, length)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app+".mtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriterOptions(f, trace.Header{
		BlockSize: 16, PageSize: PageSize, Nodes: nodes,
	}, trace.WriterOptions{SegmentBytes: 4 << 10})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDecodersEquivalence is the acceptance matrix for parallel segment
// decode: replaying an indexed trace with concurrent decoders must be
// bit-identical to the sequential decode, across policies and protocols,
// both engines, and every sharding width — decode parallelism is a
// throughput knob, never a semantics knob. Run decodes on one worker per
// GOMAXPROCS, so the matrix varies GOMAXPROCS: 1 is the sequential
// reference, 4 an explicit width, and the test's own setting the default.
func TestRunDecodersEquivalence(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 24_000)

	bases := []RunConfig{
		{Engine: EngineDirectory, Policy: "conventional"},
		{Engine: EngineDirectory, Policy: "basic"},
		{Engine: EngineDirectory, Policy: "aggressive"},
		{Engine: EngineBus, Protocol: "mesi"},
		{Engine: EngineBus, Protocol: "adaptive"},
		{Engine: EngineBus, Protocol: "adaptive-migrate-first"},
	}
	// runAt runs cfg with GOMAXPROCS, and so the decode width, set to procs
	// (0 = leave it as is).
	runAt := func(procs int, cfg RunConfig) (*RunResult, error) {
		if procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		}
		return Run(context.Background(), cfg)
	}
	for _, base := range bases {
		base.TraceFile = path
		name := base.Policy
		if name == "" {
			name = base.Protocol
		}
		t.Run(base.Engine+"/"+name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 8} {
				cfg := base
				cfg.Shards = shards

				seq, err := runAt(1, cfg) // sequential reference
				if err != nil {
					t.Fatal(err)
				}
				sj, _ := json.Marshal(seq)
				if seq.Accesses == 0 {
					t.Fatal("reference run saw no accesses")
				}

				for _, dec := range []int{4, 0} { // explicit width and auto
					par, err := runAt(dec, cfg)
					if err != nil {
						t.Fatalf("shards=%d decoders=%d: %v", shards, dec, err)
					}
					pj, _ := json.Marshal(par)
					if string(pj) != string(sj) {
						t.Fatalf("shards=%d decoders=%d drifted:\n%s\n%s", shards, dec, pj, sj)
					}
				}
			}
		})
	}
}

// TestDigestDecodersInvariant pins the cache-key contract across the
// retirement of the decode-width knob: Digest always stripped Decoders, so
// removing the field must leave every digest as it was — cohd's on-disk
// result caches and the benchmark goldens stay valid. The values were
// minted while the field still existed (with Decoders 0 and 8 alike).
func TestDigestDecodersInvariant(t *testing.T) {
	for _, tc := range []struct {
		cfg  RunConfig
		want string
	}{
		{RunConfig{Engine: EngineDirectory, Workload: "MP3D", Policy: "basic"},
			"e45ffe034ae46fe58a45d539b42b8cfa58c4d9d8fab76221a9b67ac4179503af"},
		{RunConfig{Engine: EngineBus, Workload: "Water", Protocol: "adaptive", CacheBytes: 65536},
			"cc0f0797020d9b9e513103880731e0a745bd243307ec843260d3466e80197fb6"},
	} {
		got, err := tc.cfg.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("%+v: digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
