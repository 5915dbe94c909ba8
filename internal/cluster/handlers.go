package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/wire"
)

// handleSolve answers POST /v1/solve: decode, fingerprint, route, lift.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.met.solveRequests.Add(1)
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeDraining, "gateway draining"))
		return
	}
	var req wire.SolveRequest
	if err := g.decode(w, r, &req); err != nil {
		g.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		g.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, wire.Errorf(wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	m, gerr := g.requestMatrix(&req)
	if gerr != nil {
		g.met.badRequests.Add(1)
		writeJSON(w, gerr.status, wire.Errorf(gerr.code, "%s", gerr.msg))
		return
	}
	ctx, root := g.cfg.Tracer.StartRequest(r, "gw.solve")
	t0 := time.Now()
	status, v, raw := g.solveOne(ctx, prepare(&req, m), r.Header)
	if status == http.StatusOK {
		g.met.solveHist.Observe(time.Since(t0))
	} else {
		root.SetAttrInt("status", int64(status))
	}
	if raw != nil {
		root.Finish()
		relayJSON(w, status, raw)
		return
	}
	// When this gateway is itself being traced by an upstream tier (nested
	// gateways), hand the stitched tree back the same way a backend does.
	if td := root.Finish(); td != nil && root.IsRemote() {
		if res, ok := v.(*wire.ResultJSON); ok {
			res.Trace = td.JSON()
		}
	}
	writeJSON(w, status, v)
}

// handleTraces answers GET /v1/debug/traces with the gateway tracer's recent
// and slowest stitched traces.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.cfg.Tracer.Traces())
}

// handleBatch answers POST /v1/batch: fingerprint every item, serve local
// hits, group the rest by home shard, forward one sub-batch per shard
// concurrently (each with the full failover machinery), and merge the
// responses in request order.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.met.batchRequests.Add(1)
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeDraining, "gateway draining"))
		return
	}
	var req wire.BatchRequest
	if err := g.decode(w, r, &req); err != nil {
		g.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		g.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, wire.Errorf(wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	if len(req.Requests) == 0 {
		g.badRequest(w, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > g.cfg.MaxBatch {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			wire.Errorf(wire.CodeBudgetExceeded, "batch exceeds limit"))
		return
	}

	ctx, root := g.cfg.Tracer.StartRequest(r, "gw.batch")
	defer root.Finish()

	resp := wire.BatchResponse{API: wire.V1, Results: make([]wire.BatchItem, len(req.Requests))}
	// Per-shard sub-batches: position i of shard s's sub-batch is the
	// request at original index groups[s].idx[i].
	type group struct {
		items []*solveItem
		idx   []int
	}
	groups := make(map[int]*group)
	for i := range req.Requests {
		item := &req.Requests[i]
		m, gerr := g.requestMatrix(item)
		if gerr != nil {
			resp.Results[i] = wire.BatchItem{Error: gerr.msg}
			continue
		}
		it := prepare(item, m)
		if res, ok := g.localHit(it); ok {
			resp.Results[i] = wire.BatchItem{Result: res}
			continue
		}
		home := g.ring.candidates(it.fp.Hash)[0]
		gr := groups[home]
		if gr == nil {
			gr = &group{}
			groups[home] = gr
		}
		gr.items = append(gr.items, it)
		gr.idx = append(gr.idx, i)
	}

	hdr := r.Header
	var wg sync.WaitGroup
	for _, gr := range groups {
		wg.Add(1)
		go func(gr *group) {
			defer wg.Done()
			sub := wire.BatchRequest{Requests: make([]wire.SolveRequest, len(gr.items))}
			for i, it := range gr.items {
				sub.Requests[i] = *it.shardRequest()
			}
			payload, err := json.Marshal(&sub)
			if err != nil {
				g.failGroup(resp.Results, gr.idx, err)
				return
			}
			// Route the sub-batch by its first item's fingerprint: the group
			// was formed by that key's home shard, and failover order follows
			// the same ring walk.
			fr := g.forward(ctx, gr.items[0].fp.Hash, "/v1/batch", payload, hdr)
			if fr.err != nil {
				g.met.failed.Add(1)
				g.failGroup(resp.Results, gr.idx, fmt.Errorf("all backends refused: %w", fr.err))
				return
			}
			if fr.status != http.StatusOK {
				g.met.failed.Add(1)
				g.failGroup(resp.Results, gr.idx, fmt.Errorf("backend %s: %s", fr.backend.url, errorBody(fr.body)))
				return
			}
			var subResp wire.BatchResponse
			if err := json.Unmarshal(fr.body, &subResp); err != nil || len(subResp.Results) != len(gr.items) {
				g.met.failed.Add(1)
				g.failGroup(resp.Results, gr.idx, fmt.Errorf("bad backend batch response from %s", fr.backend.url))
				return
			}
			for i, item := range subResp.Results {
				it, orig := gr.items[i], gr.idx[i]
				if item.Result == nil || !it.exact {
					if item.Result != nil {
						g.met.relayed.Add(1)
					}
					resp.Results[orig] = item
					continue
				}
				if item.Result.CacheHit {
					g.met.remoteHits.Add(1)
				}
				g.stitch(ctx, item.Result)
				res, err := it.liftJSON(item.Result)
				if err != nil {
					g.met.failed.Add(1)
					resp.Results[orig] = wire.BatchItem{Error: err.Error()}
					continue
				}
				g.keep(it, item.Result, fr.backend)
				resp.Results[orig] = wire.BatchItem{Result: res}
			}
		}(gr)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

// failGroup marks every item of a sub-batch with one routing error.
func (g *Gateway) failGroup(results []wire.BatchItem, idx []int, err error) {
	for _, i := range idx {
		results[i] = wire.BatchItem{Error: err.Error()}
	}
}

// errorBody extracts the message from a backend's structured error payload,
// falling back to the raw bytes.
func errorBody(body []byte) string {
	var e wire.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(body)
}

// handleHealthz answers GET /v1/healthz: 200 while serving with at least
// one probe-healthy backend, 503 when draining or the whole fleet is down.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	status, state := http.StatusOK, "ok"
	switch {
	case g.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case healthy == 0:
		status, state = http.StatusServiceUnavailable, "no_healthy_backends"
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"backends":  len(g.backends),
		"healthy":   healthy,
		"uptime_ms": timeSince(g.started),
	})
}

// handleMetrics answers GET /v1/metrics with the aggregated snapshot.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.MetricsSnapshot())
}

// decode reads one request body whole within the configured size cap and
// decodes it strictly, exactly like ebmfd (wire.DecodeBody): a typo'd
// option or trailing bytes must be a 400, not silently ignored.
func (g *Gateway) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	return wire.DecodeBody(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes), dst)
}

// rejectBody answers a request whose body failed to decode: 413
// budget_exceeded over the size cap, 400 bad_request otherwise.
func (g *Gateway) rejectBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		g.badRequest(w, err)
		return
	}
	g.met.badRequests.Add(1)
	writeJSON(w, http.StatusRequestEntityTooLarge, wire.Errorf(wire.CodeBudgetExceeded, "%v", err))
}

// gwError is a gateway-side coded failure, mirroring ebmfd's
// classification so clients see the same codes no matter which tier
// rejected them.
type gwError struct {
	status int
	code   string
	msg    string
}

// requestMatrix parses and size-checks one request's matrix, then checks its
// options. Dimensional invalidity (ragged rows, zero dimensions) surfaces as
// CodeBadMatrix, an oversize one as CodeBudgetExceeded and an invalid option
// as CodeBadRequest — all 400, in ebmfd's order, so a body gets the same
// answer from either tier even when the gateway could serve it from its
// local cache.
func (g *Gateway) requestMatrix(req *wire.SolveRequest) (*bitmat.Matrix, *gwError) {
	m, err := req.ParseMatrix()
	if err != nil {
		return nil, &gwError{http.StatusBadRequest, wire.CodeBadMatrix, err.Error()}
	}
	if m.Rows()*m.Cols() > g.cfg.MaxMatrixEntries {
		return nil, &gwError{http.StatusBadRequest, wire.CodeBudgetExceeded, "matrix exceeds size limit"}
	}
	if err := req.Options.Validate(); err != nil {
		return nil, &gwError{http.StatusBadRequest, wire.CodeBadRequest, err.Error()}
	}
	return m, nil
}

func (g *Gateway) badRequest(w http.ResponseWriter, err error) {
	g.met.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, wire.Errorf(wire.CodeBadRequest, "%v", err))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	if res, ok := v.(*wire.ResultJSON); ok {
		wire.WriteResult(w, res)
		return
	}
	json.NewEncoder(w).Encode(v)
}

// relayJSON writes a backend's response bytes through unchanged. Relayed
// 429s re-carry the Retry-After hint (response headers are not captured by
// the forwarding machinery, only bodies).
func relayJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	w.Write(body)
}
