package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"migratory/internal/sim"
	"migratory/internal/telemetry"
)

// TelemetryFlags bundles the observability flags every command shares:
// the opt-in metrics/pprof HTTP server, structured-log shaping, manifest
// output, and progress printing. Register them with RegisterTelemetry
// before flag.Parse, call SetupLogging right after it, and Start once the
// run options are resolved.
type TelemetryFlags struct {
	name string

	*LogFlags

	Addr        *string
	Interval    *time.Duration
	ManifestDir *string
	Progress    *string
}

// RegisterTelemetry declares the shared observability flags on the default
// flag set.
func RegisterTelemetry(name string) *TelemetryFlags {
	t := &TelemetryFlags{name: name}
	t.Addr = flag.String("telemetry-addr", "", "serve live metrics on this address (/metrics, /status, /healthz, /debug/vars, /debug/pprof); empty = no server")
	t.Interval = flag.Duration("telemetry-interval", telemetry.DefaultInterval, "telemetry sampling cadence")
	t.LogFlags = RegisterLogging(name)
	t.ManifestDir = flag.String("manifest-dir", "results", "directory for atomically written run manifests; empty = no manifest")
	t.Progress = flag.String("progress", "auto", "periodic progress/ETA lines on stderr: auto (TTY only), on, or off")
	return t
}

// LogFlags is the structured-logging slice of the shared flags, separable
// so always-on servers (cohd) can take -log-level/-log-format without the
// one-shot sweep flags.
type LogFlags struct {
	name string

	LogLevel  *string
	LogFormat *string
}

// RegisterLogging declares -log-level and -log-format on the default flag
// set.
func RegisterLogging(name string) *LogFlags {
	l := &LogFlags{name: name}
	l.LogLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	l.LogFormat = flag.String("log-format", "text", "log line shape: text or json")
	return l
}

// SetupLogging installs the process-wide slog default described by
// -log-level and -log-format. Call immediately after flag.Parse so every
// later warning and error (including Fatal) is shaped consistently.
func (l *LogFlags) SetupLogging() {
	var level slog.Level
	switch strings.ToLower(*l.LogLevel) {
	case "debug":
		level = slog.LevelDebug
	case "info", "":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		Usagef(l.name, "-log-level: unknown level %q (want debug, info, warn, or error)", *l.LogLevel)
	}
	ho := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(*l.LogFormat) {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, ho)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, ho)
	default:
		Usagef(l.name, "-log-format: unknown format %q (want text or json)", *l.LogFormat)
	}
	slog.SetDefault(slog.New(h))
}

// progressWriter resolves -progress: "on" forces stderr, "off" disables,
// and "auto" enables progress lines only when stderr is a terminal.
func (t *TelemetryFlags) progressWriter() *os.File {
	switch strings.ToLower(*t.Progress) {
	case "on":
		return os.Stderr
	case "off":
		return nil
	case "auto", "":
		if st, err := os.Stderr.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
			return os.Stderr
		}
		return nil
	default:
		Usagef(t.name, "-progress: unknown mode %q (want auto, on, or off)", *t.Progress)
		return nil
	}
}

// Manifest pre-fills a run manifest from the resolved sweep options plus
// any tool-specific extra settings; hand it to Start.
func (t *TelemetryFlags) Manifest(opts sim.Options, traceFile string, extra map[string]any) telemetry.Manifest {
	man := telemetry.NewManifest(t.name)
	man.Nodes = opts.Nodes
	man.Seed = opts.Seed
	man.Length = opts.Length
	man.Apps = opts.Apps
	for _, p := range opts.Policies {
		man.Policies = append(man.Policies, p.Name)
	}
	man.Parallelism = opts.Parallelism
	man.Stream = opts.Stream
	man.TraceFile = traceFile
	man.Extra = extra
	return man
}

// Start begins the command's telemetry session around man (see Manifest):
// the sampler starts, the HTTP server comes up when -telemetry-addr was
// given, and progress printing engages per -progress. Wire run.Stats()
// into sim.Options.Stats (or an engine Config.Stats) and arrange for
// run.Close(err) before exit. A failed listener degrades to a serverless
// session with a logged warning rather than aborting the run.
func (t *TelemetryFlags) Start(man telemetry.Manifest) *telemetry.Run {
	cfg := telemetry.RunConfig{
		Tool:        t.name,
		Addr:        *t.Addr,
		Interval:    *t.Interval,
		ManifestDir: *t.ManifestDir,
		Manifest:    man,
	}
	if w := t.progressWriter(); w != nil {
		cfg.Progress = w
	}
	run, _ := telemetry.StartRun(cfg) // listener failure already logged; run is usable
	return run
}

// FatalRun seals and writes the telemetry run's manifest with the failure
// before exiting through Fatal, so even an aborted run leaves a traceable
// artifact. run may be nil (failure before telemetry started).
func FatalRun(run *telemetry.Run, name, format string, args ...any) {
	if run != nil {
		run.Close(fmt.Errorf(format, args...))
	}
	Fatal(name, format, args...)
}
