package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runWorkload runs one workload from the test's directory (perfbench/)
// and decodes its result line.
func runWorkload(t *testing.T, name string, seed int64, traced, length int) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(name, seed, 0.5, traced, length, "..", false, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// TestWorkloadsSmoke runs every workload, timed and traced, at tiny trace
// lengths and a seed with no goldens (so the cross-repeat checks carry the
// output checking), and asserts that every declared metric is printed and
// that the traced run's exact counters hold.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"paper-sweep", "trace-replay", "cohd-serve"} {
		for _, traced := range []int{0, 1} {
			t.Run(name+map[int]string{0: "/timed", 1: "/traced"}[traced], func(t *testing.T) {
				r := runWorkload(t, name, 7, traced, 3000)
				specs := endToEnd
				if traced == 1 {
					specs = perLayer
				}
				if len(r.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := r.Metrics[s.name]
					if !ok || v.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, v, s.unit)
					}
					if traced == 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", s.name, v.Value)
					}
				}
				if traced == 0 {
					return
				}
				if r.Metrics["directory.msgs"].Value <= 0 {
					t.Error("no directory messages counted")
				}
				if name == "cohd-serve" {
					// Each client sends ledgerRequests; every third is hot.
					hot := float64(clients(&env{nproc: 2}) * (ledgerRequests / 3))
					if got := r.Metrics["server.result_cache_hits"].Value; got != hot {
						t.Errorf("server.result_cache_hits = %v, want %v", got, hot)
					}
					if r.Metrics["server.coalesced"].Value != 0 || r.Metrics["server.rejected"].Value != 0 {
						t.Error("requests were coalesced or rejected")
					}
				}
			})
		}
	}
}

// TestExactCountersRepeat checks that the traced run's exact counters are
// the same in two runs of one seed.
func TestExactCountersRepeat(t *testing.T) {
	for _, name := range []string{"trace-replay", "cohd-serve"} {
		a := runWorkload(t, name, 11, 1, 3000)
		b := runWorkload(t, name, 11, 1, 3000)
		for _, k := range []string{"directory.msgs", "server.result_cache_hits", "server.coalesced", "server.rejected", "trace.segcache_misses"} {
			if a.Metrics[k].Value != b.Metrics[k].Value {
				t.Errorf("%s %s: %v then %v", name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
	}
}

// TestGoldens runs the workloads with goldens at the default seed and full
// trace lengths, where every output is compared with its golden (and
// paper-sweep's tables with the committed results/*.txt).
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length traces")
	}
	for _, name := range []string{"paper-sweep", "trace-replay", "cohd-serve"} {
		runWorkload(t, name, defaultSeed, 0, 0)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s/%s in BENCHMARK.json, %s/%s in the program", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 20 || pct < 66.6 || pct > 66.7 {
		t.Errorf("tail of 1..30 = %v at p%v, want 20 at p66.7", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, pct)
	}
	if median(xs[:4]) != 2.5 {
		t.Errorf("median of 1..4 = %v", median(xs[:4]))
	}
}
