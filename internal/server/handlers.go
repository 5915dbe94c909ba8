package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rect"
	"repro/internal/wire"
)

// routes wires the v1 API onto the mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/fill", s.handleFill)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
}

// apiError is a handler failure with everything needed to answer it: HTTP
// status, machine-readable wire code, human message, and an optional
// Retry-After hint (429s carry one so clients back off deliberately).
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter int // seconds; >0 adds a Retry-After header
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// admissionError maps scheduler failures onto coded responses.
func admissionError(err error) *apiError {
	switch {
	case errors.Is(err, errQueueFull):
		return &apiError{status: http.StatusTooManyRequests, code: wire.CodeQueueFull,
			msg: "solve queue full, retry later", retryAfter: 1}
	case errors.Is(err, errQuotaFull):
		return &apiError{status: http.StatusTooManyRequests, code: wire.CodeQuotaExceeded,
			msg: "tenant quota exceeded, retry later", retryAfter: 1}
	case errors.Is(err, errDraining):
		return apiErrorf(http.StatusServiceUnavailable, wire.CodeDraining, "server draining")
	default: // client went away while queued
		return apiErrorf(statusClientClosedRequest, wire.CodeClientGone, "%v", err)
	}
}

// writeError answers a request with its coded error envelope.
func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, wire.Errorf(e.code, "%s", e.msg))
}

// resolveTenant authenticates the request's API key, answering the 401
// itself on unknown keys (nil tenant return).
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	t, err := s.tenantFor(r)
	if err != nil {
		s.met.rejectedAuth.Add(1)
		s.writeError(w, apiErrorf(http.StatusUnauthorized, wire.CodeUnauthorized, "unknown API key"))
		return nil, false
	}
	return t, true
}

// handleSolve answers POST /v1/solve: decode, admit, budget, solve, encode.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.solveRequests.Add(1)
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	var req wire.SolveRequest
	if err := s.decode(w, r, &req); err != nil {
		s.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	m, aerr := s.requestMatrix(&req)
	if aerr != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, aerr)
		return
	}
	ctx, root := s.cfg.Tracer.StartRequest(r, "solve")
	res, aerr := s.solveOne(ctx, t, m, &req)
	if aerr != nil {
		root.SetAttr("error", aerr.msg)
		root.Finish()
		s.met.countRejection(aerr)
		s.writeError(w, aerr)
		return
	}
	if td := root.Finish(); td != nil && root.IsRemote() {
		// The upstream gateway asked for the spans back to stitch them into
		// its own trace.
		res.Trace = td.JSON()
	}
	writeJSON(w, http.StatusOK, res)
}

// handleBatch answers POST /v1/batch: every item goes through the same
// admission gate as a standalone solve (so a batch cannot bypass
// backpressure), items run concurrently up to the server-wide limit, and the
// response preserves request order with per-item errors.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batchRequests.Add(1)
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	var req wire.BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	if len(req.Requests) == 0 {
		s.badRequest(w, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		s.met.rejectedBatch.Add(1)
		s.writeError(w, apiErrorf(http.StatusRequestEntityTooLarge, wire.CodeBudgetExceeded,
			"batch exceeds limit"))
		return
	}
	// One trace spans the whole batch, with one "item" span per request.
	// Item traces are not attached to the response items — a batch is a
	// client-facing shape, not a gateway proxy hop.
	ctx, root := s.cfg.Tracer.StartRequest(r, "batch")
	resp := wire.BatchResponse{API: wire.V1, Results: make([]wire.BatchItem, len(req.Requests))}
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := &req.Requests[i]
			s.met.solveRequests.Add(1)
			ictx, isp := obs.StartSpan(ctx, "item")
			isp.SetAttrInt("item", int64(i))
			defer isp.End()
			m, aerr := s.requestMatrix(item)
			if aerr != nil {
				s.met.badRequests.Add(1)
				resp.Results[i] = wire.BatchItem{Error: aerr.msg}
				return
			}
			res, aerr := s.solveOne(ictx, t, m, item)
			if aerr != nil {
				s.met.countRejection(aerr)
				resp.Results[i] = wire.BatchItem{Error: aerr.msg}
				return
			}
			resp.Results[i] = wire.BatchItem{Result: res}
		}(i)
	}
	wg.Wait()
	root.Finish()
	writeJSON(w, http.StatusOK, resp)
}

// solveOne runs the admission + budget + cached-solve path shared by the
// solve and batch handlers, admitted as tenant t.
func (s *Server) solveOne(ctx context.Context, t *tenant, m *bitmat.Matrix, req *wire.SolveRequest) (*wire.ResultJSON, *apiError) {
	opts, timeout, err := req.Options.Apply(*s.cfg.Options)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
	}
	opts, timeout = s.solveBudgets(opts, timeout)

	tq := time.Now()
	_, qsp := obs.StartSpan(ctx, "queue")
	release, err := s.admit(ctx, t)
	qsp.End()
	if err != nil {
		return nil, admissionError(err)
	}
	s.met.queueHist.Observe(time.Since(tq))
	defer release()

	solveCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	t0 := time.Now()
	rj, res, err := s.cachedSolve(solveCtx, m, opts)
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, wire.CodeInternal, "%v", err)
	}
	s.met.observeSolve(res, time.Since(t0))
	if sp := obs.FromContext(ctx); sp != nil {
		sp.SetAttr("fingerprint", rj.Fingerprint)
		if res.CacheHit {
			sp.SetAttr("cache_hit", "true")
		}
		sp.SetAttrInt("depth", int64(res.Depth))
		sp.SetAttrInt("conflicts", res.Conflicts)
	}
	return rj, nil
}

// cachedSolve runs one solve through the cache and returns its wire form,
// plus the result for metrics. The partition goes from the cache's index
// lists to the wire without bitset rectangles.
func (s *Server) cachedSolve(ctx context.Context, m *bitmat.Matrix, opts core.Options) (*wire.ResultJSON, *core.Result, error) {
	res, rects, fp, err := s.cache.SolveContextIndexed(ctx, m, opts)
	if err != nil {
		return nil, nil, err
	}
	return wire.FromIndexed(res, fp, rects), res, nil
}

// statusClientClosedRequest mirrors nginx's non-standard 499 for requests
// abandoned while queued; the client is gone, the code is for the logs.
const statusClientClosedRequest = 499

// handleFill answers POST /v1/fill: validate a replicated proved-optimal
// canonical result, then seed it into the cache tiers. Fills skip the solve
// admission gate — validation is a fingerprint recompute plus a partition
// check, orders of magnitude cheaper than a solve — but a draining server
// still refuses them: its store is about to be flushed and closed.
func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	s.met.fillRequests.Add(1)
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		s.writeError(w, apiErrorf(http.StatusServiceUnavailable, wire.CodeDraining, "server draining"))
		return
	}
	var req wire.FillRequest
	if err := s.decode(w, r, &req); err != nil {
		s.met.fillRejected.Add(1)
		s.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		s.met.fillRejected.Add(1)
		s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	hash, res, err := s.validateFill(&req)
	if err != nil {
		s.met.fillRejected.Add(1)
		s.badRequest(w, err)
		return
	}
	stored := s.cache.Seed(hash, res)
	if stored {
		s.met.fillStored.Add(1)
	} else {
		s.met.fillDuplicate.Add(1)
	}
	writeJSON(w, http.StatusOK, wire.FillResponse{API: wire.V1, Stored: stored})
}

// validateFill checks a fill's structure before it may touch the cache: the
// submitted matrix must be exactly its own canonical form, its recomputed
// fingerprint must match the claimed key, and the partition must be a valid
// EBMF of that matrix at the claimed depth. What this proves: the entry is
// internally consistent and keyed correctly, so it can never make a future
// request return an invalid partition (lifting re-validates anyway).
// What it takes on trust from the fleet: that the depth is optimal.
func (s *Server) validateFill(req *wire.FillRequest) (string, *core.Result, error) {
	if req.Fingerprint == "" {
		return "", nil, errors.New("fill: missing fingerprint")
	}
	rj := req.Result
	if rj == nil {
		return "", nil, errors.New("fill: missing result")
	}
	if !rj.Optimal || rj.TimedOut || rj.Canceled {
		return "", nil, errors.New("fill: only proved-optimal uninterrupted results may be filled")
	}
	if req.Matrix == "" {
		return "", nil, errors.New("fill: missing matrix")
	}
	m, err := bitmat.Parse(req.Matrix)
	if err != nil {
		return "", nil, err
	}
	if m.Rows()*m.Cols() > s.cfg.MaxMatrixEntries {
		return "", nil, errors.New("matrix exceeds size limit")
	}
	fp := bitmat.ComputeFingerprint(m)
	if !fp.Exact {
		return "", nil, errors.New("fill: matrix exceeds canonicalization budget")
	}
	if fp.Hash != req.Fingerprint {
		return "", nil, errors.New("fill: fingerprint does not match matrix")
	}
	if !m.Equal(fp.Canonical) {
		return "", nil, errors.New("fill: matrix is not in canonical form")
	}
	p := rect.NewPartition(m)
	for i, rr := range rj.Partition {
		if len(rr.Rows) == 0 || len(rr.Cols) == 0 {
			return "", nil, fmt.Errorf("fill: rect %d is empty", i)
		}
		nr := rect.NewRect(m.Rows(), m.Cols())
		for _, v := range rr.Rows {
			if v < 0 || v >= m.Rows() {
				return "", nil, fmt.Errorf("fill: rect %d row %d out of range", i, v)
			}
			nr.Rows.Set(v, true)
		}
		for _, v := range rr.Cols {
			if v < 0 || v >= m.Cols() {
				return "", nil, fmt.Errorf("fill: rect %d col %d out of range", i, v)
			}
			nr.Cols.Set(v, true)
		}
		p.Add(nr)
	}
	if err := p.Validate(); err != nil {
		return "", nil, fmt.Errorf("fill: partition invalid: %w", err)
	}
	if rj.Depth != p.Depth() {
		return "", nil, fmt.Errorf("fill: claimed depth %d != partition depth %d", rj.Depth, p.Depth())
	}
	res := rj.Meta()
	res.Partition = p
	return fp.Hash, &res, nil
}

// handleHealthz answers GET /v1/healthz: 200 while serving, 503 once
// draining so load balancers stop routing new work here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// handleMetrics answers GET /v1/metrics with the counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleTraces answers GET /v1/debug/traces with the finished-trace rings:
// the most recent traces plus the slowest retained ones.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Tracer.Traces())
}

// decode reads one request body whole within the configured size cap and
// decodes it strictly (wire.DecodeBody).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	return wire.DecodeBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), dst)
}

// rejectBody answers a request whose body failed to decode: 413
// budget_exceeded over the size cap, 400 bad_request otherwise.
func (s *Server) rejectBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		s.badRequest(w, err)
		return
	}
	s.met.badRequests.Add(1)
	s.writeError(w, apiErrorf(http.StatusRequestEntityTooLarge, wire.CodeBudgetExceeded, "%v", err))
}

// requestMatrix parses and size-checks one request's matrix, classifying
// failures: an unparseable matrix is CodeBadMatrix, one over the configured
// cell budget is CodeBudgetExceeded (both 400 — the request itself is well
// formed JSON, its payload is what's unacceptable).
func (s *Server) requestMatrix(req *wire.SolveRequest) (*bitmat.Matrix, *apiError) {
	m, err := req.ParseMatrix()
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, wire.CodeBadMatrix, "%v", err)
	}
	if m.Rows()*m.Cols() > s.cfg.MaxMatrixEntries {
		return nil, apiErrorf(http.StatusBadRequest, wire.CodeBudgetExceeded, "matrix exceeds size limit")
	}
	return m, nil
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.met.badRequests.Add(1)
	s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeBadRequest, "%v", err))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if res, ok := v.(*wire.ResultJSON); ok {
		wire.WriteResult(w, res)
		return
	}
	json.NewEncoder(w).Encode(v)
}
