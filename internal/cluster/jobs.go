package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
)

// The async-job proxy. Jobs differ from solves in two ways that shape this
// code:
//
//   - A submit is NOT idempotent: re-executing it on two backends would run
//     (and bill) the solve twice and leave an orphan job behind. So the
//     submit walks the candidate ring SEQUENTIALLY — failover happens only
//     after a backend refused — and never hedges.
//   - A job has a home: every later poll, cancel and event stream must
//     reach the backend that accepted the submit. The jobTable remembers
//     that route under a gateway-minted ID (backend IDs are only unique
//     per backend), together with the solveItem needed to lift canonical
//     results back onto the client's matrix.
//
// The event stream is relayed frame by frame through wire's event codec:
// status and progress frames, chosen by their event name, relay verbatim
// (nothing in them is backend-specific), while the terminal "done" frame is
// decoded, its job ID rewritten and its result lifted from canonical space,
// then re-encoded. Closing the client connection closes the proxied backend
// request, so cancel_on_disconnect semantics propagate through the gateway
// unchanged.

// jobEntry is one proxied job's route: where it lives, how to lift its
// result, and everything needed to re-home it — the canonical submit
// payload is pinned so a dead backend's job can be resubmitted to the next
// ring candidate under the same gateway ID.
type jobEntry struct {
	mu        sync.Mutex
	backend   *backend
	backendID string
	it        *solveItem // nil lift context means relay results verbatim
	payload   []byte     // canonical submit body (re-homing resubmits it)
	fpHash    string     // ring key, for the re-home candidate order
	terminal  bool       // a terminal snapshot was observed through this route
	rehomed   bool       // the route no longer points at the original home
}

// route reads the entry's current backend and backend-side job ID.
func (e *jobEntry) route() (*backend, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backend, e.backendID
}

// markTerminal records that a terminal snapshot passed through this route:
// the job is finished, so this entry is first in line for eviction.
func (e *jobEntry) markTerminal() {
	e.mu.Lock()
	e.terminal = true
	e.mu.Unlock()
}

func (e *jobEntry) isTerminal() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.terminal
}

// jobTable maps gateway job IDs to their routes, bounded by evicting
// terminal entries first and only then the oldest live ones — a submit
// burst must not drop the route of a still-running streamed job (an evicted
// job is still pollable directly on its backend; the gateway just no longer
// knows the way).
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]*jobEntry
	order []string
	max   int
}

func newJobTable(max int) *jobTable {
	return &jobTable{jobs: make(map[string]*jobEntry), max: max}
}

func (t *jobTable) add(e *jobEntry) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id string
	for {
		id = wire.NewJobID("gw-")
		if _, taken := t.jobs[id]; !taken {
			break
		}
	}
	t.jobs[id] = e
	t.order = append(t.order, id)
	t.evictLocked()
	return id
}

// evictLocked enforces max: finished jobs age out first (oldest terminal
// first), and only when every remaining entry is live does it fall back to
// strict FIFO.
func (t *jobTable) evictLocked() {
	over := len(t.order) - t.max
	if over <= 0 {
		return
	}
	kept := t.order[:0]
	for _, id := range t.order {
		if over > 0 && t.jobs[id].isTerminal() {
			delete(t.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
	for over > 0 && len(t.order) > 0 {
		delete(t.jobs, t.order[0])
		t.order = t.order[1:]
		over--
	}
}

func (t *jobTable) get(id string) *jobEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

func (t *jobTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// rewriteJob maps a backend job snapshot into gateway space: the gateway ID
// replaces the backend's, the rehomed flag surfaces, and a canonical-space
// result is lifted onto the client's original matrix. Returns an error only
// when lifting fails — a backend or routing bug, never a client mistake.
func (e *jobEntry) rewriteJob(gwID string, j *wire.JobJSON) error {
	j.ID = gwID
	e.mu.Lock()
	rehomed, it := e.rehomed, e.it
	e.mu.Unlock()
	if rehomed {
		j.Rehomed = true
	}
	if wire.JobTerminal(j.State) {
		e.markTerminal()
	}
	if j.Result == nil || it == nil || !it.exact {
		return nil
	}
	res, err := it.liftJSON(j.Result)
	if err != nil {
		return err
	}
	j.Result = res
	return nil
}

// rehome resubmits a job whose home backend stopped answering: the pinned
// canonical payload is offered to the remaining ring candidates in order,
// and the first 202 becomes the entry's new route — same gateway ID,
// Rehomed surfaced on every later snapshot. Sound because a solve result is
// a deterministic property of the matrix: the new backend re-derives (or
// cache-hits) the same answer the dead one would have produced. Progress is
// reset — the client may see "queued" again — which is the trade against a
// permanent 502. Reports whether a new home accepted.
func (g *Gateway) rehome(ctx context.Context, gwID string, e *jobEntry, hdr http.Header) bool {
	e.mu.Lock()
	payload, dead, fpHash, terminal := e.payload, e.backend, e.fpHash, e.terminal
	e.mu.Unlock()
	if len(payload) == 0 || terminal {
		return false
	}
	order, forceFrom := g.candidateOrder(fpHash)
	for i, b := range order {
		if b == dead {
			continue
		}
		fr := g.attempt(ctx, b, "/v1/jobs", payload, i >= forceFrom, hdr)
		if ctx.Err() != nil {
			return false
		}
		if !fr.authoritative() || fr.status != http.StatusAccepted {
			continue
		}
		var j wire.JobJSON
		if err := json.Unmarshal(fr.body, &j); err != nil {
			continue
		}
		e.mu.Lock()
		e.backend, e.backendID, e.rehomed = b, j.ID, true
		e.mu.Unlock()
		g.met.jobsRehomed.Add(1)
		g.cfg.Logger.Printf("job %s: re-homed %s -> %s", gwID, dead.url, b.url)
		return true
	}
	return false
}

// handleJobSubmit proxies POST /v1/jobs: validate locally (cheap, and the
// fingerprint is needed for routing anyway), then offer the job to the
// ring's candidates one at a time until a backend accepts it.
func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	g.met.jobSubmits.Add(1)
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, wire.Errorf(wire.CodeDraining, "gateway draining"))
		return
	}
	var req wire.JobRequest
	if err := g.decode(w, r, &req); err != nil {
		g.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		g.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, wire.Errorf(wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	sreq := req.SolveRequest()
	m, gerr := g.requestMatrix(sreq)
	if gerr != nil {
		g.met.badRequests.Add(1)
		writeJSON(w, gerr.status, wire.Errorf(gerr.code, "%s", gerr.msg))
		return
	}
	it := prepare(sreq, m)
	// Forward the canonical matrix exactly like the solve path, so the
	// backend's cache and singleflight see the same key space either way.
	fwd, shard := req, it.shardRequest()
	fwd.Matrix, fwd.Rows = shard.Matrix, shard.Rows
	payload, err := json.Marshal(&fwd)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, wire.Errorf(wire.CodeInternal, "%v", err))
		return
	}

	ctx := r.Context()
	order, forceFrom := g.candidateOrder(it.fp.Hash)
	var last fwdResult
	for i, b := range order {
		fr := g.attempt(ctx, b, "/v1/jobs", payload, i >= forceFrom, r.Header)
		if ctx.Err() != nil {
			writeJSON(w, statusClientClosedRequest, wire.Errorf(wire.CodeClientGone, "%v", ctx.Err()))
			return
		}
		last = fr
		if !fr.authoritative() {
			if fr.err == nil {
				g.met.failovers.Add(1)
			}
			continue
		}
		if fr.status != http.StatusAccepted {
			// The backend made a decision a different shard would repeat
			// (bad request, quota, auth): relay it.
			relayJSON(w, fr.status, fr.body)
			return
		}
		var j wire.JobJSON
		if err := json.Unmarshal(fr.body, &j); err != nil {
			g.met.failed.Add(1)
			writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "bad backend job response: %v", err))
			return
		}
		e := &jobEntry{backend: b, backendID: j.ID, it: it, payload: payload, fpHash: it.fp.Hash}
		gwID := g.jobs.add(e)
		if err := e.rewriteJob(gwID, &j); err != nil {
			g.met.failed.Add(1)
			writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "%v", err))
			return
		}
		g.met.jobsAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, &j)
		return
	}
	// No candidate accepted. Relay the most recent refusal (a 429/503 tells
	// the client the fleet's actual state) or fail coded.
	if last.err == nil && last.status != 0 {
		g.met.failed.Add(1)
		relayJSON(w, last.status, last.body)
		return
	}
	g.met.failed.Add(1)
	writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "all backends refused the job: %v", last.err))
}

// dialJob resolves {id} to its route and sends one request for the job to
// its home backend at /v1/jobs/{backend id}+suffix, forwarding the client's
// auth and Last-Event-ID (only the event stream reads the latter). A route
// the gateway evicted or never knew answers 404, the same contract as the
// backend's per-tenant visibility. A transport error (home died) triggers
// one re-home attempt: the pinned submit resubmits to the next ring
// candidate and the call retries against the new route, so a dead-backend
// job answers from a live (re-homed) backend instead of 502. When dialJob
// has written the response itself, resp is nil.
func (g *Gateway) dialJob(w http.ResponseWriter, r *http.Request, method, suffix string) (gwID string, e *jobEntry, resp *http.Response) {
	gwID = r.PathValue("id")
	if e = g.jobs.get(gwID); e == nil {
		writeJSON(w, http.StatusNotFound, wire.Errorf(wire.CodeNotFound, "no such job"))
		return gwID, nil, nil
	}
	for try := 0; ; try++ {
		b, backendID := e.route()
		req, err := http.NewRequestWithContext(r.Context(), method,
			b.url+"/v1/jobs/"+backendID+suffix, nil)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, wire.Errorf(wire.CodeInternal, "%v", err))
			return gwID, e, nil
		}
		copyAuth(req.Header, r.Header)
		if lid := r.Header.Get("Last-Event-ID"); lid != "" {
			req.Header.Set("Last-Event-ID", lid)
		}
		if resp, err = g.client.Do(req); err == nil {
			return gwID, e, resp
		}
		b.report(false, time.Now(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		if try == 0 && g.rehome(r.Context(), gwID, e, r.Header) {
			continue
		}
		g.met.failed.Add(1)
		writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "job backend unreachable: %v", err))
		return gwID, e, nil
	}
}

// proxyJobCall forwards one GET/DELETE to a job's home backend (dialJob)
// and rewrites the snapshot on success.
func (g *Gateway) proxyJobCall(w http.ResponseWriter, r *http.Request, method string) {
	gwID, e, resp := g.dialJob(w, r, method, "")
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxRespBytes))
	if err != nil {
		g.met.failed.Add(1)
		writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "job backend read: %v", err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		relayJSON(w, resp.StatusCode, body)
		return
	}
	var j wire.JobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		g.met.failed.Add(1)
		writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "bad backend job response: %v", err))
		return
	}
	if err := e.rewriteJob(gwID, &j); err != nil {
		g.met.failed.Add(1)
		writeJSON(w, http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, &j)
}

// handleJobGet proxies GET /v1/jobs/{id} to the job's home backend.
func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request) {
	g.proxyJobCall(w, r, http.MethodGet)
}

// handleJobCancel proxies DELETE /v1/jobs/{id} to the job's home backend.
func (g *Gateway) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	g.proxyJobCall(w, r, http.MethodDelete)
}

// handleJobEvents proxies the SSE stream from the job's home backend. A
// frame the backend tore (its stream ended inside it) or sent over
// MaxRespBytes ends the relay unsent, so the client polls instead of reading
// a truncated snapshot. dialJob forwards the client's Last-Event-ID, so
// resumption works through the proxy.
func (g *Gateway) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	gwID, e, resp := g.dialJob(w, r, http.MethodGet, "/events")
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxRespBytes))
		relayJSON(w, resp.StatusCode, body)
		return
	}
	g.met.jobStreams.Add(1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	rd := wire.NewEventReader(resp.Body, int(g.cfg.MaxRespBytes))
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		if f.Event != wire.EventDone {
			if _, err := w.Write(f.Raw); err != nil {
				return
			}
			rc.Flush()
			continue
		}
		var ev wire.JobEvent
		if json.Unmarshal(f.Data, &ev) != nil || ev.Job == nil {
			return // a done frame without a snapshot: the client polls
		}
		if err := e.rewriteJob(gwID, ev.Job); err != nil {
			// Lifting failed mid-stream: surface it as the stream's
			// terminal event rather than a silent truncation.
			ev.Job.State = wire.JobFailed
			ev.Job.Result = nil
			ev.Job.Error = err.Error()
		}
		if wire.WriteEvent(w, &ev) == nil {
			rc.Flush()
		}
		return
	}
}
