package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"migratory/internal/sim"
	"migratory/internal/trace"
)

// maxRequestBody bounds run-request bodies; configs are small JSON objects.
const maxRequestBody = 1 << 20

// submitRequest is the POST /v1/runs envelope.
type submitRequest struct {
	// Config is the run description (sim.RunConfig wire fields).
	Config sim.RunConfig `json:"config"`
	// Timeout is the per-request deadline as a Go duration string
	// ("30s", "2m"); empty uses the server default.
	Timeout string `json:"timeout,omitempty"`
	// Wait blocks the request until the run finishes and returns the
	// result inline (poll GET /v1/runs/{id} otherwise).
	Wait bool `json:"wait,omitempty"`
	// NoCache bypasses the result cache and in-flight coalescing.
	NoCache bool `json:"no_cache,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/runs      submit a run (429 when the queue is full, 503 while
//	                   draining, 400 on a config the CLI would reject too)
//	GET  /v1/runs      list retained jobs plus queue state
//	GET  /v1/runs/{id} one job; ?wait=1 blocks until it is terminal
//
// Patterns carry the /v1 prefix, so the handler mounts directly on a mux
// routing "/v1/" (no StripPrefix), e.g. the telemetry server's.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var timeout time.Duration
	if req.Timeout != "" {
		var err error
		if timeout, err = time.ParseDuration(req.Timeout); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad timeout: " + err.Error()})
			return
		}
	}
	j, err := s.Submit(req.Config, timeout, req.NoCache)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err != nil:
		// Validation errors carry the exact message a CLI run would print.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if req.Wait {
		s.waitAndWrite(w, r, j)
		return
	}
	snap := s.Snapshot(j)
	code := http.StatusAccepted
	if snap.Status == StatusDone {
		code = http.StatusOK // cache hit or coalesced onto a finished run
	}
	writeJSON(w, code, snap)
}

// waitAndWrite blocks until the job is terminal (or the client goes away)
// and writes it with the status code its outcome maps to: 200 done, 504
// deadline exceeded, 422 a trace file the run cannot read (a v1/v2 file,
// or a damaged one: the caller's input, not a server fault), 500 other
// failures.
func (s *Server) waitAndWrite(w http.ResponseWriter, r *http.Request, j *Job) {
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return
	}
	snap := s.Snapshot(j)
	code := http.StatusOK
	if snap.Status == StatusFailed {
		switch err := snap.Err(); {
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, trace.ErrNoIndex), errors.Is(err, trace.ErrBadMagic),
			errors.Is(err, trace.ErrCorrupt), errors.Is(err, trace.ErrTruncated):
			code = http.StatusUnprocessableEntity
		default:
			code = http.StatusInternalServerError
		}
	}
	writeJSON(w, code, snap)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth, capacity, draining := len(s.queue), cap(s.queue), s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"runs":           s.Jobs(),
		"queue_depth":    depth,
		"queue_capacity": capacity,
		"draining":       draining,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown run id"})
		return
	}
	q := r.URL.Query().Get("wait")
	if q == "1" || q == "true" {
		s.waitAndWrite(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot(j))
}
