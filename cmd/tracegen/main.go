// Command tracegen generates, inspects, and converts the synthetic
// SPLASH-like shared-memory traces used by the simulators. Generation
// streams straight from the workload generator into the compact .mtr
// format, so arbitrarily long traces are written in constant memory, and
// statistics are computed in streaming passes over the source.
//
// Every writer emits the indexed v3 format, and every replay path reads
// only v3. -in decodes any version sequentially, so `-in old.mtr -o
// new.mtr` is the one-shot conversion of a v1/v2 file; the output header
// keeps each field the input header specifies, and -block/-nodes fill only
// the fields it leaves at zero (v1 files carry no header at all).
//
// Usage:
//
//	tracegen -app MP3D -o mp3d.mtr            # generate a binary trace
//	tracegen -app Water -stats                # print trace statistics
//	tracegen -in mp3d.mtr -stats              # analyze an existing trace
//	tracegen -in old.mtr -o new.mtr           # convert a v1/v2 trace to v3
//	tracegen -list                            # list available profiles
package main

import (
	"flag"
	"fmt"
	"os"

	"migratory/internal/cliutil"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/sim"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// run is the command's telemetry session; fatal funnels failures through
// it so even a failed generation leaves a manifest.
var run *telemetry.Run

func main() {
	var (
		app       = flag.String("app", "", "application profile to generate")
		in        = flag.String("in", "", "read an existing binary trace instead of generating")
		out       = flag.String("o", "", "write the trace to this file (.mtr binary format)")
		length    = flag.Int("length", 0, "trace length (0 = profile default, must be >= 0)")
		seed      = flag.Int64("seed", 1993, "generator seed")
		nodes     = flag.Int("nodes", 16, "processor count (with -in: only where the input header has none)")
		blockSize = flag.Int("block", 16, "block size for the statistics (with -in: only where the input header has none)")
		stats     = flag.Bool("stats", false, "print trace statistics")
		list      = flag.Bool("list", false, "list available application profiles")
		segBytes  = flag.Int("segment-bytes", 0, "target encoded segment size of the .mtr output (0 = default)")

		prof = cliutil.RegisterProfile("tracegen")
		tele = cliutil.RegisterTelemetry("tracegen")
	)
	flag.Parse()
	tele.SetupLogging()
	defer prof.Start()()

	if *list {
		fmt.Printf("%-12s %-12s %s\n", "profile", "footprint", "segments")
		for _, p := range workload.Profiles() {
			segs := ""
			for i, s := range p.Segments {
				if i > 0 {
					segs += ", "
				}
				segs += fmt.Sprintf("%s (%s, %d x %dB)", s.Name, s.Kind, s.Objects, s.ObjWords*4)
			}
			fmt.Printf("%-12s %6d KB    %s\n", p.Name, p.FootprintKB(), segs)
		}
		return
	}

	if *length < 0 {
		cliutil.Usagef("tracegen", "-length must be >= 0 (0 = profile default; got %d)", *length)
	}

	run = tele.Start(tele.Manifest(sim.Options{Nodes: *nodes, Seed: *seed, Length: *length}, *in,
		map[string]any{"app": *app, "out": *out, "block": *blockSize}))
	defer run.Close(nil)

	hdr := trace.Header{BlockSize: *blockSize, PageSize: sim.PageSize, Nodes: *nodes}
	var src trace.Source
	switch {
	case *in != "":
		fs, err := trace.OpenFile(*in)
		if err != nil {
			fatal(err)
		}
		hdr = inputHeader(fs.Header(), hdr)
		src = fs
	case *app != "":
		prof, err := workload.ProfileByName(*app)
		if err != nil {
			fatal(err)
		}
		src, err = workload.NewSource(prof, *nodes, *seed, *length)
		if err != nil {
			fatal(err)
		}
	default:
		cliutil.Usagef("tracegen", "need -app, -in, or -list")
	}
	defer src.Close()

	geom, err := memory.NewGeometry(hdr.BlockSize, hdr.PageSize)
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		n, err := export(src, *out, hdr, trace.WriterOptions{SegmentBytes: *segBytes})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d accesses to %s\n", n, *out)
		if err := src.Reset(); err != nil {
			fatal(err)
		}
	}

	if *stats || *out == "" {
		if err := report(src, geom, hdr.Nodes); err != nil {
			fatal(err)
		}
	}
	run.Close(nil)
}

// inputHeader is the header a converted trace keeps: every field the input
// header specifies, with the flag-derived defaults filling only the zero
// ones.
func inputHeader(in, flags trace.Header) trace.Header {
	if in.BlockSize == 0 {
		in.BlockSize = flags.BlockSize
	}
	if in.PageSize == 0 {
		in.PageSize = flags.PageSize
	}
	if in.Nodes == 0 {
		in.Nodes = flags.Nodes
	}
	return in
}

// export streams the source into an .mtr file and returns the access count.
func export(src trace.Source, path string, hdr trace.Header, opts trace.WriterOptions) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := trace.NewWriterOptions(f, hdr, opts)
	n, err := trace.Copy(w, src)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// report prints the trace census and the local-access fraction under each
// placement policy, each computed in its own streaming pass.
func report(src trace.Source, geom memory.Geometry, nodes int) error {
	st, err := trace.AnalyzeSource(src, geom)
	if err != nil {
		return err
	}
	fmt.Print(st)

	rewind := func() error { return src.Reset() }
	if err := rewind(); err != nil {
		return err
	}
	ft, err := placement.FirstTouchSource(src, geom, nodes)
	if err != nil {
		return err
	}
	if err := rewind(); err != nil {
		return err
	}
	ub, err := placement.UsageBasedSource(src, geom, nodes)
	if err != nil {
		return err
	}
	for _, pl := range []placement.Policy{placement.NewRoundRobin(nodes), ft, ub} {
		if err := rewind(); err != nil {
			return err
		}
		frac, err := placement.LocalFractionSource(src, geom, pl)
		if err != nil {
			return err
		}
		fmt.Printf("local access fraction under %-11s placement: %.1f%%\n",
			pl.Name(), 100*frac)
	}
	return nil
}

// fatal exits through the shared cliutil funnel: one structured error
// line, a sealed manifest, status 1.
func fatal(err error) {
	cliutil.FatalRun(run, "tracegen", "%v", err)
}
