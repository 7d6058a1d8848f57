package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"migratory/internal/trace"
)

// span is one timed call into a layer, recorded from this package only.
// Spans of one op share Op; Parent is the ID of the span that caused it
// (0 for an op's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends; it is safe for
// concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID for use as a parent. A
// nil recorder records nothing, so untraced code paths can call it freely.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(r.t0)), End: ms(end.Sub(r.t0)),
	})
	return id
}

// begin records a span that starts now; end closes it.
func (r *recorder) begin(name string, op, parent int) int {
	now := time.Now()
	return r.add(name, op, parent, now, now)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = ms(time.Since(r.t0))
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource wraps a trace source and accumulates the time its consumer
// spent blocked in NextBatch. It implements NextBatch itself, so the
// engines keep their batch path. Per-access Next calls (the placement
// profiling pass) pass through untimed: a clock read per access would cost
// more than the decode it measures.
type timedSource struct {
	trace.Source
	start time.Time     // when the open call began
	open  time.Duration // how long it took
	wait  time.Duration
}

func (s *timedSource) NextBatch(buf []trace.Access) (int, error) {
	t := time.Now()
	n, err := trace.FillBatch(s.Source, buf)
	s.wait += time.Since(t)
	return n, err
}

// openTimed opens path the way sim.Run opens a trace file (indexed
// parallel decode, default decoder count, the given segment cache) and
// wraps the source.
func openTimed(path string, cache *trace.SegmentCache) (*timedSource, error) {
	t := time.Now()
	src, err := trace.OpenFileParallelCache(path, 0, cache)
	if err != nil {
		return nil, err
	}
	return &timedSource{Source: src, start: t, open: time.Since(t)}, nil
}

// drainNs reads path once, through cache when it is non-nil, and returns
// the nanoseconds per access: the trace layer alone. batch drains through
// NextBatch, as the engines read; otherwise through Next, as the placement
// pass reads.
func drainNs(path string, cache *trace.SegmentCache, batch bool) (float64, error) {
	t := time.Now()
	src, err := openTimed(path, cache)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	n := 0
	for {
		var err error
		if batch {
			var k int
			k, err = src.NextBatch(buf)
			n += k
		} else if _, err = src.Next(); err == nil {
			n++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, errors.New("drain: empty trace")
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n), nil
}
