package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"rawdb"
	"rawdb/internal/vector"
)

// HTTP endpoint.
//
//	POST /query   {"query": "...", "timeout_ms": 0}  -> Response (JSON)
//	GET  /metrics  engine + server metrics in Prometheus exposition format
//	               (a ?format=prom parameter is accepted and ignored)
//	GET  /debug/queries             in-flight queries (JSON)
//	POST /debug/queries/{id}/cancel cancel one in-flight query
//	GET  /debug/heat                workload-heat profiler snapshot (JSON)
//	GET  /healthz  "ok"
//
// Status mapping: 200 success, 400 parse/plan/execute errors, 429 admission
// rejected (ErrOverloaded), 504 deadline exceeded, 499-ish client cancel is
// reported as 400 with the context error (the client is usually gone by
// then). The request context carries the client disconnect, so closing the
// connection cancels the running scan within one batch.

// Handler returns the HTTP handler for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/queries", s.handleInflight)
	mux.HandleFunc("POST /debug/queries/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /debug/heat", s.handleHeat)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, status := make([]byte, 0, 512), http.StatusBadRequest
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		body = appendError(body, "bad request: "+err.Error())
	} else {
		body, status = s.serve(r.Context(), req, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// serve runs one wire request through admission and execution, appends its
// response line to dst, and maps the outcome to an HTTP status. Shared by the
// HTTP handler and the line protocol (which reports the status in-band).
func (s *Server) serve(ctx context.Context, req Request, dst []byte) ([]byte, int) {
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	var opts raw.Options
	if req.Workers > 0 {
		opts.Parallelism = &req.Workers
	}
	res, err := s.ExecuteOpt(ctx, req.Query, opts)
	switch {
	case err == nil:
		cols := make([]*vector.Vector, len(res.Columns))
		for c := range cols {
			cols[c] = res.Column(c)
		}
		return appendResult(dst, res.Columns, res.Types, cols), http.StatusOK
	case errors.Is(err, ErrOverloaded):
		return appendError(dst, err.Error()), http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return appendError(dst, err.Error()), http.StatusGatewayTimeout
	default:
		return appendError(dst, err.Error()), http.StatusBadRequest
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	raw.WritePrometheus(w, s.eng.Metrics())
}

// handleInflight serves the live query registry: one JSON object per
// currently-executing query (id, sql, phase, start, rows so far, workers).
func (s *Server) handleInflight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.eng.Inflight())
}

// handleCancel cancels one in-flight query by ID, through the same context
// path a client disconnect takes. 404 when the ID is unknown or the query
// already finished.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad query id", http.StatusBadRequest)
		return
	}
	if !s.eng.CancelQuery(id) {
		http.Error(w, "no such in-flight query", http.StatusNotFound)
		return
	}
	w.Write([]byte("cancelled\n"))
}

// handleHeat serves the workload-heat profiler snapshot.
func (s *Server) handleHeat(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.eng.HeatSnapshot())
}
