package sim

import (
	"testing"

	"migratory/internal/core"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// TestSweepCellTelemetry checks that every sweep driver reports to
// Options.Stats through the shared cell fan-out: CellsTotal and CellsDone
// both end at the driver's cell count, and the classifier-accuracy runs
// add their accesses (the timing model has no Stats hook, so
// execution-time cells count as cells only).
func TestSweepCellTelemetry(t *testing.T) {
	opts := testOpts("MP3D")
	opts.Length = 5_000
	app, err := PrepareApp("MP3D", opts)
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
	n := uint64(len(accs))

	cases := []struct {
		name     string
		cells    uint64
		accesses uint64 // 0 = not checked
		run      func(Options) error
	}{
		{"ClassifierAccuracyApp", 3, 3 * n, func(o Options) error {
			_, err := ClassifierAccuracyApp(app, o, 0)
			return err
		}},
		{"ExecutionTimeApps", 2, 0, func(o Options) error {
			_, err := ExecutionTimeApps([]*App{app}, o, core.Basic, 0)
			return err
		}},
		{"NodeCountSweep", 2 * 4, 0, func(o Options) error {
			_, err := NodeCountSweep("MP3D", []int{4, 8}, o)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &telemetry.RunStats{}
			o := opts
			o.Stats = st
			if err := tc.run(o); err != nil {
				t.Fatal(err)
			}
			if total, done := st.CellsTotal.Load(), st.CellsDone.Load(); total != tc.cells || done != tc.cells {
				t.Fatalf("cells done/total = %d/%d, want %d/%d", done, total, tc.cells, tc.cells)
			}
			if got := st.Accesses.Load(); tc.accesses != 0 && got != tc.accesses {
				t.Fatalf("accesses = %d, want %d", got, tc.accesses)
			}
		})
	}
}
