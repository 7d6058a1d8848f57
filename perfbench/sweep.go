package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"migratory/internal/core"
	"migratory/internal/sim"
	"migratory/internal/snoop"
	"migratory/internal/stats"
	"migratory/internal/workload"
)

// paperSweep is the paper-sweep workload: one op reproduces Tables 2 and
// 3, the §4.3 bus comparison (bussim -symmetry) and the §4.2 execution-time
// study in-process over apps prepared once in set-up. There is no decode
// and no placement pass in an op, so it is engine-bound.
type paperSweep struct {
	e        *env
	opts     sim.Options
	apps     []*sim.App
	execApps []*sim.App
	lengths  map[string]uint64
	want     [4][]byte // expected rendered tables; nil until known
	computed computed  // the latest op's results
	last     layerSample
}

// paperTables are the committed outputs one op must reproduce byte for
// byte at the default seed, in op order.
var paperTables = [4]string{"table2.txt", "table3.txt", "bussim.txt", "exectime.txt"}

// opResult is what one paper-sweep op produced.
type opResult struct {
	out      [4][]byte
	render   time.Duration // turning the computed sweeps into the tables
	accesses uint64        // simulated, over every cell
	msgs     uint64        // directory messages over Tables 2 and 3
}

func runPaperSweep(e *env, t *tally) (metrics, error) {
	m := metrics{}
	reps := setupReps
	if e.traced {
		reps = 1
	}
	p := &paperSweep{e: e, opts: sim.Options{Context: context.Background(), Nodes: nodes, Parallelism: e.nproc}}
	var setups, gens, preps []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0, c0 := time.Now(), cpuTime()
		gen, prep, err := p.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		gens, preps = append(gens, ms(gen)), append(preps, ms(prep))
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.3f s wall, %.3f s CPU (generate %.0f ms, prepare %.0f ms)\n",
			i, time.Since(t0).Seconds(), setups[i], gens[i], preps[i])
	}
	if e.golden {
		for i, name := range paperTables {
			b, err := os.ReadFile(filepath.Join(e.root, "results", name))
			if err != nil {
				return nil, err
			}
			p.want[i] = b
		}
	}

	// Warm-up: the first op runs noticeably slower than the rest.
	if _, err := p.checkedOp(t, 0); err != nil {
		return nil, err
	}

	if e.traced {
		m["workload.generate_ms"] = median(gens)
		m["sim.prepare_ms"] = median(preps)
		return m, p.traced(t, m)
	}

	var lat, hot []float64
	var accesses uint64
	ph := startPhase()
	for ops := 0; ; ops++ {
		// Start another op only while it is expected to end in time.
		if el := time.Since(ph.wall0); ops >= 2 && el+el/time.Duration(ops) > e.seconds {
			break
		}
		t0 := time.Now()
		r, err := p.checkedOp(t, ops+1)
		if err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
		hot = append(hot, ms(r.render))
		accesses += r.accesses
	}
	st := ph.stop()
	wallReport("reproduction", lat)
	wallReport("table rendering", hot)

	return m, finishEndToEnd(m, setups, st, len(lat), accesses)
}

// setup generates and prepares the five applications on one goroutine:
// workload generation, then the usage-based placement pass (sim.NewApp is
// sim.PrepareApp split in two so each half can be timed).
func (p *paperSweep) setup() (gen, prep time.Duration, err error) {
	p.apps, p.execApps, p.lengths = nil, nil, map[string]uint64{}
	for _, prof := range workload.Profiles() {
		t0 := time.Now()
		accs, err := workload.Generate(prof, nodes, p.e.seed, p.e.length)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		app := sim.NewApp(prof.Name, accs, nodes)
		gen, prep = gen+t1.Sub(t0), prep+time.Since(t1)
		p.apps = append(p.apps, app)
		p.lengths[prof.Name] = uint64(len(accs))
		for _, name := range sim.ExecApps {
			if name == prof.Name {
				p.execApps = append(p.execApps, app)
			}
		}
	}
	return gen, prep, nil
}

// checkedOp runs one op and checks its four tables: against the committed
// results at the default seed, otherwise against the first op's tables.
// A mismatch fails the op; an error from the simulator ends the run.
func (p *paperSweep) checkedOp(t *tally, id int) (opResult, error) {
	t.attempted++
	r, err := p.op(id)
	if err == nil {
		p.check(t, id, r.out)
	}
	return r, err
}

// op reproduces the paper once. In traced runs each table call is a span,
// and the process CPU spent inside it is charged to that table's engine.
func (p *paperSweep) op(id int) (opResult, error) {
	var r opResult
	rec := p.e.spans
	root := rec.begin("paper-sweep.op", id, 0)
	var cpu, wall [4]time.Duration
	step := func(i int, f func() error) error {
		t0, c0 := time.Now(), cpuTime()
		err := f()
		wall[i], cpu[i] = time.Since(t0), cpuTime()-c0
		rec.add([]string{"sim.table2", "sim.table3", "sim.bus", "sim.exectime"}[i], id, root, t0, t0.Add(wall[i]))
		return err
	}
	var sw2, sw3 *sim.Sweep
	var bus *sim.BusSweep
	var rows []sim.ExecRow
	protocols := []snoop.Protocol{snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst, snoop.Symmetry}
	err := step(0, func() (err error) { sw2, err = sim.Table2Apps(p.apps, p.opts); return })
	if err == nil {
		err = step(1, func() (err error) { sw3, err = sim.Table3Apps(p.apps, p.opts); return })
	}
	if err == nil {
		err = step(2, func() (err error) { bus, err = sim.RunBusApps(p.apps, p.opts, sim.BusCacheSizes, protocols); return })
	}
	if err == nil {
		err = step(3, func() (err error) { rows, err = sim.ExecutionTimeApps(p.execApps, p.opts, core.Basic, 0); return })
	}
	if err != nil {
		return r, err
	}

	p.computed = computed{sw2, sw3, bus, rows}
	t0 := time.Now()
	if r.out, err = p.computed.render(); err != nil {
		return r, err
	}
	r.render = time.Since(t0)

	var dirAcc, busAcc, timAcc uint64
	for _, sw := range []*sim.Sweep{sw2, sw3} {
		for _, rs := range sw.Rows {
			for _, row := range rs {
				for _, c := range row.Cells {
					dirAcc += c.Counters.Accesses
					r.msgs += uint64(c.Msgs.Total())
				}
			}
		}
	}
	for _, rs := range bus.Rows {
		for _, row := range rs {
			busAcc += p.lengths[row.App] * uint64(len(row.Cells))
		}
	}
	for _, row := range rows {
		timAcc += row.Base.Accesses + row.Adaptive.Accesses
	}
	r.accesses = dirAcc + busAcc + timAcc
	if rec != nil {
		rec.end(root)
		p.last = layerSample{
			dirCPU: cpu[0] + cpu[1], dirAcc: dirAcc,
			busCPU: cpu[2], busAcc: busAcc,
			timCPU: cpu[3], timAcc: timAcc,
			wall: wall, msgs: r.msgs,
		}
	}
	return r, nil
}

// layerSample is one traced op's per-layer split.
type layerSample struct {
	dirCPU, busCPU, timCPU time.Duration
	dirAcc, busAcc, timAcc uint64
	wall                   [4]time.Duration
	msgs                   uint64
}

// computed is one op's simulated results, before rendering.
type computed struct {
	sw2, sw3 *sim.Sweep
	bus      *sim.BusSweep
	rows     []sim.ExecRow
}

// render turns the results into the four tables exactly as migsim -table
// 2, migsim -table 3, bussim -symmetry and exectime print them.
func (c computed) render() (out [4][]byte, err error) {
	out[0], err = render("Table 2: message counts (thousands) by cache size, application, and protocol (16-byte blocks)", c.sw2.Render())
	if err == nil {
		out[1], err = render("Table 3: message counts (thousands) by block size, application, and protocol (infinite caches)", c.sw3.Render())
	}
	if err == nil {
		out[2], err = render("Bus-based snooping protocols (§4.3): savings vs conventional MESI", c.bus.Render())
	}
	if err == nil {
		out[3], err = render("Execution-driven simulation (§4.2): DASH-like latencies, round-robin placement", sim.RenderExec(c.rows, core.Basic))
	}
	return out, err
}

// check compares rendered tables with the expected ones.
func (p *paperSweep) check(t *tally, id int, out [4][]byte) {
	for i := range out {
		switch {
		case p.want[i] == nil:
			p.want[i] = out[i]
		case !bytes.Equal(p.want[i], out[i]):
			t.fail("paper-sweep op %d: %s differs from the expected table", id, paperTables[i])
			return
		}
	}
}

func render(title string, tab *stats.Table) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n\n", title)
	if err := tab.Render(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// traced runs the op four times — untraced, traced, traced, untraced, so
// drift over the run cancels out of the overhead — and reports the
// per-layer ledger of the first traced op. Engine costs are process CPU
// per simulated access while that engine's table ran: cells run on e.nproc
// workers, so CPU, not wall time, is what one access costs.
func (p *paperSweep) traced(t *tally, m metrics) error {
	rec := p.e.spans
	var untraced, traced, first phaseStats
	var wallU, wallT []float64
	var s layerSample
	for i, tr := range []bool{false, true, true, false} {
		p.e.spans = nil
		if tr {
			p.e.spans = rec
		}
		ph := startPhase()
		t0 := time.Now()
		if _, err := p.checkedOp(t, i+1); err != nil {
			return err
		}
		wall := ms(time.Since(t0))
		st := ph.stop()
		if tr {
			traced, wallT = traced.add(st), append(wallT, wall)
		} else {
			untraced, wallU = untraced.add(st), append(wallU, wall)
		}
		if i == 1 {
			first, s = st, p.last
		}
	}
	p.e.spans = rec
	overhead(m, untraced, traced, median(wallU), median(wallT), len(wallT))
	st := first

	m["directory.engine_ms"] = ms(s.dirCPU)
	m["directory.ns_per_access"] = float64(s.dirCPU.Nanoseconds()) / float64(s.dirAcc)
	m["directory.msgs"] = float64(s.msgs)
	m["snoop.ns_per_access"] = float64(s.busCPU.Nanoseconds()) / float64(s.busAcc)
	m["timing.ns_per_access"] = float64(s.timCPU.Nanoseconds()) / float64(s.timAcc)
	m["sim.table2_ms"] = ms(s.wall[0])
	m["sim.table3_ms"] = ms(s.wall[1])
	m["sim.bus_ms"] = ms(s.wall[2])
	m["sim.exectime_ms"] = ms(s.wall[3])
	m["sim.cpu_util"] = float64(st.cpu) / (float64(st.wall) * float64(p.e.nproc))
	// Slice-backed apps are read by the engines in place: no decode wait.
	m["trace.decode_wait_ms"] = 0
	st.runtimeMetrics(m, 1)
	return nil
}
