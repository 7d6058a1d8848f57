package migratory

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"migratory/internal/core"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/stats"
	"migratory/internal/workload"
)

// TestPaperTablesGolden regenerates the paper's Table 2, Table 3, the §4.3
// bus comparison and the §4.2 execution-time table at the default seed
// (1993, default trace lengths) and byte-compares each with its committed
// copy under results/, exactly as migsim -table 2, migsim -table 3,
// bussim -symmetry and exectime print them. The equivalence suites compare
// execution paths with each other; this test pins the absolute numbers.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length paper sweep")
	}
	opts := sim.Options{Context: context.Background(), Nodes: 16, Seed: 1993}
	var apps, execApps []*sim.App
	for _, prof := range workload.Profiles() {
		accs, err := workload.Generate(prof, opts.Nodes, opts.Seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		app := sim.NewApp(prof.Name, accs, opts.Nodes)
		apps = append(apps, app)
		for _, name := range sim.ExecApps {
			if name == prof.Name {
				execApps = append(execApps, app)
			}
		}
	}

	render := func(title string, tab *stats.Table) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s\n\n", title)
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	check := func(file string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("results", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("results/%s differs from the regenerated table:\n--- got\n%s\n--- want\n%s", file, got, want)
		}
	}

	sw2, err := sim.Table2Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("table2.txt", render("Table 2: message counts (thousands) by cache size, application, and protocol (16-byte blocks)", sw2.Render()))

	sw3, err := sim.Table3Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("table3.txt", render("Table 3: message counts (thousands) by block size, application, and protocol (infinite caches)", sw3.Render()))

	protocols := []snoop.Protocol{snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst, snoop.Symmetry}
	bus, err := sim.RunBusApps(apps, opts, sim.BusCacheSizes, protocols)
	if err != nil {
		t.Fatal(err)
	}
	check("bussim.txt", render("Bus-based snooping protocols (§4.3): savings vs conventional MESI", bus.Render()))

	rows, err := sim.ExecutionTimeApps(execApps, opts, core.Basic, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("exectime.txt", render("Execution-driven simulation (§4.2): DASH-like latencies, round-robin placement", sim.RenderExec(rows, core.Basic)))
}
