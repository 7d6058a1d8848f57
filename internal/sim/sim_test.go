package sim

import (
	"strings"
	"testing"

	"migratory/internal/core"
	"migratory/internal/snoop"
	"migratory/internal/trace"
)

// testOpts keeps sweep tests fast: shorter traces, a subset of parameters.
func testOpts(apps ...string) Options {
	return Options{Nodes: 16, Seed: 1993, Length: 60_000, Apps: apps}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Nodes != 16 || o.Seed != 1993 {
		t.Fatalf("defaults: %+v", o)
	}
	if len(o.Apps) != 5 {
		t.Fatalf("apps: %v", o.Apps)
	}
	if len(o.Policies) != 4 || o.Policies[0].Name != "conventional" {
		t.Fatalf("policies: %v", o.Policies)
	}
}

func TestPrepareApp(t *testing.T) {
	app, err := PrepareApp("Water", testOpts("Water"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := app.Open()
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.ReadAll(src)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "Water" || len(accs) < 60_000 {
		t.Fatalf("app = %s, %d accesses", app.Name, len(accs))
	}
	if app.Placement == nil || app.Placement.Name() != "usage-based" {
		t.Fatal("placement not usage-based")
	}
	if _, err := PrepareApp("nope", testOpts()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestRunDirectoryCellErrors checks that a directory sweep cell with a bad
// geometry fails the sweep instead of producing a row.
func TestRunDirectoryCellErrors(t *testing.T) {
	opts := testOpts("Water")
	app, err := PrepareApp("Water", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Policies = []core.Policy{core.Basic}
	if _, err := directorySweep(opts, []*App{app}, nil, []int{24}, false); err == nil {
		t.Fatal("bad block size accepted")
	}
	if _, err := directorySweep(opts, []*App{app}, []int{100}, nil, true); err == nil {
		t.Fatal("bad cache size accepted")
	}
}

// TestTable2Shape asserts the qualitative findings of the paper's Table 2
// on a reduced sweep: every adaptive protocol beats conventional, more
// aggressive beats less aggressive, and the benefit grows with cache size.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	opts := testOpts("MP3D", "Water")
	sw, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.GroupValues) != 5 || !sw.GroupIsCache {
		t.Fatalf("groups = %v", sw.GroupValues)
	}
	for _, gv := range sw.GroupValues {
		for _, row := range sw.Rows[gv] {
			base := row.Cells[0]
			prev := 0.0
			for i, c := range row.Cells[1:] {
				red := c.Reduction(base)
				if red <= 0 {
					t.Errorf("%s @%d: %s reduction %.1f <= 0", row.App, gv, c.Policy.Name, red)
				}
				if red+2 < prev { // allow small non-monotonic noise
					t.Errorf("%s @%d: %s (%.1f) worse than less aggressive (%.1f)",
						row.App, gv, c.Policy.Name, red, prev)
				}
				prev = red
				_ = i
			}
		}
	}
	// Cache-size trend: the aggressive reduction at 1M exceeds 4K.
	for appIdx, app := range opts.Apps {
		small := sw.Rows[4<<10][appIdx]
		large := sw.Rows[1<<20][appIdx]
		if small.App != app || large.App != app {
			t.Fatalf("row ordering broken")
		}
		rs := small.Cells[3].Reduction(small.Cells[0])
		rl := large.Cells[3].Reduction(large.Cells[0])
		if rl <= rs {
			t.Errorf("%s: aggressive reduction at 1M (%.1f) not above 4K (%.1f)", app, rl, rs)
		}
	}
}

// TestTable3Shape asserts the block-size findings: MP3D's benefit collapses
// at 256-byte blocks (false sharing) while Cholesky's stays high.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	opts := testOpts("Cholesky", "MP3D")
	// Cholesky's panel reuse needs a longer trace to stabilize.
	opts.Length = 150_000
	sw, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sw.GroupIsCache {
		t.Fatal("Table3 grouped by cache")
	}
	red := func(bs int, appIdx int) float64 {
		row := sw.Rows[bs][appIdx]
		return row.Cells[3].Reduction(row.Cells[0])
	}
	// MP3D at 16B is near the theoretical maximum; at 256B it collapses.
	if r := red(16, 1); r < 35 {
		t.Errorf("MP3D @16B aggressive = %.1f; want >= 35", r)
	}
	if r16, r256 := red(16, 1), red(256, 1); r256 > r16-10 {
		t.Errorf("MP3D false-sharing collapse missing: 16B %.1f vs 256B %.1f", r16, r256)
	}
	// Cholesky degrades much less than MP3D (the paper shows it flat).
	cholDrop := red(16, 0) - red(256, 0)
	mp3dDrop := red(16, 1) - red(256, 1)
	if cholDrop+5 > mp3dDrop {
		t.Errorf("Cholesky drop %.1f not clearly below MP3D drop %.1f", cholDrop, mp3dDrop)
	}
	if r := red(256, 0); r < 15 {
		t.Errorf("Cholesky @256B aggressive = %.1f; want >= 15", r)
	}
}

func TestSweepRender(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 20_000
	sw, err := directorySweep(opts, nil, []int{4 << 10}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	out := sw.Render().String()
	for _, want := range []string{"4K", "Water", "conventional w/o", "aggressive w/o"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	ratios := sw.CostRatioTable().String()
	for _, want := range []string{"per-16B", "2:1", "aggressive"} {
		if !strings.Contains(ratios, want) {
			t.Errorf("ratio table missing %q:\n%s", want, ratios)
		}
	}
}

func TestRunBusShape(t *testing.T) {
	opts := testOpts("MP3D")
	sw, err := RunBus(opts, []int{64 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := sw.Rows[64<<10]
	if len(rows) != 1 || len(rows[0].Cells) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	mesi := rows[0].Cells[0].Counts
	adp := rows[0].Cells[1].Counts
	if adp.Total() >= mesi.Total() {
		t.Fatalf("adaptive bus total %d not below MESI %d", adp.Total(), mesi.Total())
	}
	// Model-1 savings for MP3D should be large (paper: over 40%).
	save := 100 * (1 - float64(adp.Total())/float64(mesi.Total()))
	if save < 30 {
		t.Fatalf("MP3D bus savings = %.1f; want >= 30", save)
	}
	out := sw.Render().String()
	for _, want := range []string{"mesi", "adaptive", "save%(model1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("bus render missing %q:\n%s", want, out)
		}
	}
}

func TestRunBusErrors(t *testing.T) {
	if _, err := RunBus(testOpts("nope"), nil, nil); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := RunBus(testOpts("Water"), []int{100}, []snoop.Protocol{snoop.MESI}); err == nil {
		t.Fatal("bad cache size accepted")
	}
}

func TestExecutionTime(t *testing.T) {
	opts := testOpts("MP3D")
	opts.Length = 50_000
	rows, err := ExecutionTime(opts, core.Basic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.ReductionPct <= 0 {
		t.Fatalf("MP3D execution-time reduction = %.2f; want > 0", r.ReductionPct)
	}
	if r.Adaptive.Cycles >= r.Base.Cycles {
		t.Fatal("adaptive not faster")
	}
	if r.Base.StallFraction() <= r.Adaptive.StallFraction() {
		t.Fatal("stall fraction did not improve")
	}
	out := RenderExec(rows, core.Basic).String()
	for _, want := range []string{"MP3D", "basic cycles", "time reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("exec render missing %q:\n%s", want, out)
		}
	}
}

func TestExecutionTimeErrors(t *testing.T) {
	if _, err := ExecutionTime(testOpts("nope"), core.Basic, 0); err == nil {
		t.Fatal("unknown app accepted")
	}
}
