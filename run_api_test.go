package migratory_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"migratory"
)

// TestRunMatchesDeprecatedEntryPoints checks the unified Run against the
// engines driven directly: identical engines, identical numbers.
func TestRunMatchesDeprecatedEntryPoints(t *testing.T) {
	const (
		nodes  = 16
		seed   = 1993
		length = 20_000
	)
	ctx := context.Background()
	accs, err := migratory.GenerateWorkload("MP3D", nodes, seed, length)
	if err != nil {
		t.Fatal(err)
	}
	geom := migratory.MustGeometry(16, 4096)

	t.Run("directory", func(t *testing.T) {
		res, err := migratory.Run(ctx, migratory.RunConfig{
			Engine: migratory.EngineDirectory, Workload: "MP3D",
			Policy: "basic", Length: length,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := migratory.PolicyByName("basic")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := migratory.NewDirectorySystem(migratory.DirectoryConfig{
			Nodes:     nodes,
			Geometry:  geom,
			Assoc:     4,
			Policy:    pol,
			Placement: migratory.UsageBasedPlacement(accs, geom, nodes),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunSource(ctx, migratory.NewSliceTraceSource(accs)); err != nil {
			t.Fatal(err)
		}
		if res.Directory == nil || res.Directory.Msgs != sys.Messages() {
			t.Fatalf("message counts diverge: %+v vs %+v", res.Directory, sys.Messages())
		}
		if res.Accesses != sys.Counters().Accesses {
			t.Fatalf("access counts diverge: %d vs %d", res.Accesses, sys.Counters().Accesses)
		}
	})

	t.Run("bus", func(t *testing.T) {
		res, err := migratory.Run(ctx, migratory.RunConfig{
			Engine: migratory.EngineBus, Workload: "MP3D",
			Protocol: "adaptive", Length: length,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := migratory.NewBusSystem(migratory.BusConfig{
			Nodes:    nodes,
			Geometry: geom,
			Assoc:    4,
			Protocol: migratory.BusAdaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunSource(ctx, migratory.NewSliceTraceSource(accs)); err != nil {
			t.Fatal(err)
		}
		if res.Bus == nil || res.Bus.Counts != sys.Counts() {
			t.Fatalf("bus counts diverge: %+v vs %+v", res.Bus, sys.Counts())
		}
	})

	t.Run("timing", func(t *testing.T) {
		res, err := migratory.Run(ctx, migratory.RunConfig{
			Engine: migratory.EngineTiming, Workload: "MP3D",
			Policy: "basic", Length: length, CacheBytes: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		old, err := migratory.RunTimed(accs, migratory.TimingConfig{
			Nodes:      nodes,
			Geometry:   geom,
			CacheBytes: 1 << 14,
			Policy: func() migratory.Policy {
				p, err := migratory.PolicyByName("basic")
				if err != nil {
					t.Fatal(err)
				}
				return p
			}(),
			Params: migratory.DefaultTimingParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing == nil || !reflect.DeepEqual(*res.Timing, old) {
			t.Fatalf("timing results diverge: %+v vs %+v", res.Timing, old)
		}
	})
}

// TestRunFacadeSentinels checks the facade's re-exported sentinels match
// what Run returns for bad configs.
func TestRunFacadeSentinels(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		cfg  migratory.RunConfig
		want error
	}{
		{"engine", migratory.RunConfig{Engine: "fpga", Workload: "MP3D"}, migratory.ErrUnknownEngine},
		{"profile", migratory.RunConfig{Engine: migratory.EngineDirectory, Workload: "Quake", Policy: "basic"}, migratory.ErrUnknownProfile},
		{"policy", migratory.RunConfig{Engine: migratory.EngineDirectory, Workload: "MP3D", Policy: "chaotic"}, migratory.ErrUnknownPolicy},
		{"protocol", migratory.RunConfig{Engine: migratory.EngineBus, Workload: "MP3D", Protocol: "firefly"}, migratory.ErrUnknownProtocol},
		{"placement", migratory.RunConfig{Engine: migratory.EngineDirectory, Workload: "MP3D", Policy: "basic", Placement: "random"}, migratory.ErrUnknownPlacement},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := migratory.Run(ctx, tc.cfg); !errors.Is(err, tc.want) {
				t.Fatalf("Run = %v, want errors.Is(err, %v)", err, tc.want)
			}
			if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}
