package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"migratory/internal/sim"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// TestMain lets the tests run this binary as tracegen itself: with
// TRACEGEN_RUN_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs the command with args in a scratch directory and returns
// its combined output and exit code.
func tracegen(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-manifest-dir", ""}, args...)...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "TRACEGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// runJSON replays path through sim.Run (directory engine, basic policy,
// the given node count) and returns the canonical result encoding.
func runJSON(t *testing.T, path string, nodes int) string {
	t.Helper()
	res, err := sim.Run(context.Background(), sim.RunConfig{
		Engine: sim.EngineDirectory, TraceFile: path, Nodes: nodes, Policy: "basic", CacheBytes: 16 << 10,
	})
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// indexedHeader opens path on the replay path (so it must be v3) and
// returns its header.
func indexedHeader(t *testing.T, path string) trace.Header {
	t.Helper()
	src, err := trace.OpenIndexedFile(path, 1)
	if err != nil {
		t.Fatalf("%s is not a readable v3 trace: %v", path, err)
	}
	defer src.Close()
	return src.Header()
}

// TestConvertLegacyFixtures converts the committed v1 and v2 fixtures
// (MP3D, 2,000 accesses, 16 nodes, seed 1993) with `tracegen -in`: each
// output must be v3 and replay to the same result as the same accesses
// written by trace.NewWriter.
func TestConvertLegacyFixtures(t *testing.T) {
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Generate(prof, 16, 1993, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.mtr")
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f, trace.Header{BlockSize: 16, PageSize: sim.PageSize, Nodes: 16})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, ref, 16)

	for _, version := range []string{"v1", "v2"} {
		in, err := filepath.Abs(filepath.Join("..", "..", "testdata", "legacy_"+version+".mtr"))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, version+"-converted.mtr")
		if msg, code := tracegen(t, "-in", in, "-o", out); code != 0 {
			t.Fatalf("%s: tracegen -in exited %d: %s", version, code, msg)
		}
		if hdr := indexedHeader(t, out); hdr != (trace.Header{BlockSize: 16, PageSize: sim.PageSize, Nodes: 16}) {
			t.Fatalf("%s: converted header %+v", version, hdr)
		}
		if got := runJSON(t, out, 16); got != want {
			t.Fatalf("%s: converted trace replays differently\n got %s\nwant %s", version, got, want)
		}
	}
}

// TestConvertKeepsInputHeader converts a 32-node trace with the -nodes and
// -block flags left at their 16-node defaults: the output must keep the
// input's header (the flags fill only fields the input leaves at zero),
// not fail on the first access from node 16 or above.
func TestConvertKeepsInputHeader(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mtr")
	b := filepath.Join(dir, "b.mtr")
	if msg, code := tracegen(t, "-app", "MP3D", "-nodes", "32", "-block", "32", "-length", "5000", "-o", a); code != 0 {
		t.Fatalf("generate exited %d: %s", code, msg)
	}
	if msg, code := tracegen(t, "-in", a, "-o", b); code != 0 {
		t.Fatalf("convert exited %d: %s", code, msg)
	}
	want := trace.Header{BlockSize: 32, PageSize: sim.PageSize, Nodes: 32}
	if got := indexedHeader(t, b); got != want {
		t.Fatalf("converted header %+v, want %+v", got, want)
	}
	if runJSON(t, a, 32) != runJSON(t, b, 32) {
		t.Fatal("converted 32-node trace replays differently")
	}
}

// TestNegativeLengthRejected: -length < 0 is a usage error (exit 2), not
// a request for an empty trace.
func TestNegativeLengthRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "neg.mtr")
	msg, code := tracegen(t, "-app", "MP3D", "-length", "-5", "-o", out)
	if code != 2 || !strings.Contains(msg, "-length") {
		t.Fatalf("tracegen -length -5 exited %d: %s", code, msg)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a trace was written despite the usage error: %v", err)
	}
}
