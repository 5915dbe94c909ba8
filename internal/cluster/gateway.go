// Package cluster implements ebmfgw, the fingerprint-sharded gateway in
// front of a fleet of ebmfd backends. It speaks the same internal/wire
// schema on both sides, so ebmf/ebmfd clients work unchanged against it.
//
//	POST /v1/solve            routed by canonical fingerprint to one shard
//	POST /v1/batch            split across shards, merged in request order
//	POST /v1/jobs             async job submit, sticky-routed by fingerprint
//	GET  /v1/jobs/{id}        poll a proxied job on its home backend
//	DELETE /v1/jobs/{id}      cancel a proxied job
//	GET  /v1/jobs/{id}/events SSE passthrough with done-event lifting
//	GET  /v1/healthz          gateway liveness (+ healthy-backend count)
//	GET  /v1/metrics          gateway counters + per-backend state
//
// Jobs are sticky: the submit walks the ring sequentially (no hedging — a
// submit is not idempotent, racing it would run the solve twice) and the
// gateway remembers which backend accepted each job, so polls, cancels and
// event streams reach the same machine. Tenant API keys (Authorization /
// X-API-Key) forward unchanged on every proxied call: admission, QoS
// accounting and job visibility are the backend's decisions.
//
// The routing insight is that the canonical fingerprint (PR 3) is the
// perfect shard key: it is invariant under row/column permutation,
// duplication and zero padding, so permutation-equivalent requests from
// different users consistently land on the same backend — where its result
// cache and singleflight deduplicate them. The gateway forwards the
// *canonical* matrix (not the client's), so equivalent requests present
// byte-identical bodies to the shard, and lifts the shard's canonical-space
// partition back onto each client's matrix through the fingerprint maps
// (solvecache.LiftIndices), re-validating on the way — a routing or cache
// bug degrades to an error, never to a wrong answer.
//
// Resilience, in front of the routing:
//
//   - Health probes: GET /v1/healthz per backend, backing off with jittered
//     exponential delays while a backend stays down (capped ~30s); draining
//     or dead backends drop out of the preferred candidate order.
//   - Circuit breakers: BreakerThreshold consecutive refusals open a
//     backend's breaker; after a jittered cooldown one half-open trial
//     request decides whether it closes again, and each failed trial
//     doubles the next cooldown.
//   - Bounded in-flight: at most MaxInflight gateway requests per backend;
//     excess spills to the next ring position instead of piling up.
//   - Hedged retry: when the home shard has not answered within HedgeAfter,
//     the same request is raced against the next ring position (safe
//     because results are deterministic — see DESIGN.md §10); an outright
//     refusal advances immediately. A request fails only when every
//     candidate backend has refused it.
//   - Cache-fill replication: each freshly proved-optimal result is pushed
//     asynchronously (POST /v1/fill) to the key's ReplicateFills ring
//     successors — exactly the shards a failover would choose — so losing
//     the home shard costs a warm cache hit, not a re-solve (replicate.go).
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/obs"
	"repro/internal/solvecache"
	"repro/internal/wire"
)

// Config tunes the gateway. Backends is required; everything else defaults.
type Config struct {
	// Backends are the ebmfd base URLs (e.g. "http://10.0.0.7:8421") that
	// form the consistent-hash ring.
	Backends []string
	// HedgeAfter is how long the home shard may stay silent before the
	// request is raced against the next ring position (default 2s; negative
	// disables hedging — failover then happens only on outright refusal).
	HedgeAfter time.Duration
	// LocalCacheSize bounds the gateway-local LRU of proved-optimal results
	// (default 512 entries; negative disables the local cache).
	LocalCacheSize int
	// ProbeInterval is the healthz probe period (default 2s; negative
	// disables probing — backends then stay optimistically healthy and only
	// breakers shed them).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-refusal count that opens a
	// backend's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before admitting
	// one half-open trial (default 5s).
	BreakerCooldown time.Duration
	// MaxInflight bounds concurrent gateway requests per backend (default
	// 256); excess spills to the next ring position.
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 4 MiB, matching ebmfd).
	MaxBodyBytes int64
	// MaxRespBytes caps backend response bodies read by the gateway
	// (default 64 MiB — large partitions are index lists).
	MaxRespBytes int64
	// MaxMatrixEntries caps rows×cols of a submitted matrix (default 1<<20).
	MaxMatrixEntries int
	// MaxBatch caps the number of requests in one batch (default 64).
	MaxBatch int
	// MaxJobRoutes caps the job → home-backend routing entries the gateway
	// retains (default 4096; the oldest routes are evicted first, after
	// which the job remains pollable directly on its backend).
	MaxJobRoutes int
	// ReplicateFills is how many ring successors receive an asynchronous
	// POST /v1/fill of each freshly proved-optimal result (default 1;
	// negative disables replication). Successor caches warm before any
	// failover happens, so losing the home shard costs the survivors a
	// cache lookup instead of a re-solve.
	ReplicateFills int
	// FillTimeout bounds one replication fill request (default 5s).
	FillTimeout time.Duration
	// Client issues the backend requests (default: a dedicated client with
	// per-host keep-alive pools and no global timeout — deadlines come from
	// request contexts and hedging).
	Client *http.Client
	// Logger receives health transitions and one line per request (default:
	// discard).
	Logger *log.Logger
	// Tracer records gateway traces for GET /v1/debug/traces. Each proxied
	// solve sends a traceparent header to its backend and grafts the spans
	// the backend returns, so a gateway trace shows the whole cross-tier
	// request (default: a tracer with obs defaults).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 2 * time.Second
	}
	if c.LocalCacheSize == 0 {
		c.LocalCacheSize = 512
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxRespBytes <= 0 {
		c.MaxRespBytes = 64 << 20
	}
	if c.MaxMatrixEntries <= 0 {
		c.MaxMatrixEntries = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxJobRoutes <= 0 {
		c.MaxJobRoutes = 4096
	}
	if c.ReplicateFills == 0 {
		c.ReplicateFills = 1
	}
	if c.ReplicateFills < 0 {
		c.ReplicateFills = 0
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{})
	}
	return c
}

// Gateway is the ebmfgw HTTP service. Create with New; serve via Handler;
// stop the probe loops with Close.
type Gateway struct {
	cfg      Config
	client   *http.Client
	backends []*backend
	ring     *ring
	cache    *solvecache.Cache // gateway-local tier; nil when disabled
	jobs     *jobTable         // job ID → home backend routes
	mux      *http.ServeMux
	draining atomic.Bool
	started  time.Time
	stop     context.CancelFunc
	fillSem  chan struct{} // bounds concurrent background fill sends
	fillWG   sync.WaitGroup
	met      gwMetrics
}

// New builds a gateway over cfg.Backends and starts its health-probe loops.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	urls := make([]string, len(cfg.Backends))
	for i, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty backend URL at position %d", i)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls[i] = u
	}
	g := &Gateway{
		cfg:     cfg,
		client:  cfg.Client,
		ring:    newRing(urls),
		jobs:    newJobTable(cfg.MaxJobRoutes),
		mux:     http.NewServeMux(),
		started: time.Now(),
		fillSem: make(chan struct{}, maxConcurrentFills),
	}
	for _, u := range urls {
		g.backends = append(g.backends, newBackend(u, cfg.MaxInflight))
	}
	if cfg.LocalCacheSize > 0 {
		g.cache = solvecache.New(cfg.LocalCacheSize)
	}
	g.routes()
	ctx, cancel := context.WithCancel(context.Background())
	g.stop = cancel
	if cfg.ProbeInterval > 0 {
		for _, b := range g.backends {
			go g.probeLoop(ctx, b)
		}
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return obs.LogRequests(g.cfg.Logger, g.mux) }

// Close stops the health-probe loops and waits for in-flight cache fills
// (each bounded by FillTimeout). In-flight requests are unaffected.
func (g *Gateway) Close() {
	g.stop()
	g.fillWG.Wait()
}

// BeginDrain makes the gateway reject new work with 503 (healthz flips so
// balancers stop routing here). Pair with http.Server.Shutdown.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

func (g *Gateway) routes() {
	g.mux.HandleFunc("POST /v1/solve", g.handleSolve)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("POST /v1/jobs", g.handleJobSubmit)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobGet)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobCancel)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleJobEvents)
	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /v1/debug/traces", g.handleTraces)
}

// ---------------------------------------------------------------------------
// Forwarding: candidate order, attempts, hedged failover.

// Attempt-classification sentinels; all of them mean "this backend refused,
// try the next one".
var (
	errInflightFull = errors.New("cluster: backend at in-flight limit")
	errBreakerOpen  = errors.New("cluster: breaker open")
	errAllRefused   = errors.New("cluster: every candidate backend refused the request")
)

// fwdResult is one backend attempt's outcome. An attempt is authoritative
// when the backend produced an answer the gateway should relay (2xx, or a
// 4xx other than 429 — a different shard would answer identically); it is a
// refusal when the backend is unreachable, overloaded (429), draining (503)
// or failing (5xx).
type fwdResult struct {
	status  int
	body    []byte
	err     error
	backend *backend
}

func (r fwdResult) authoritative() bool {
	return r.err == nil && r.status < 500 && r.status != http.StatusTooManyRequests
}

// attempt sends one request to one backend, feeding the breaker and
// in-flight bookkeeping. force bypasses the breaker gate (last-resort pass:
// a request may only be failed once every candidate truly refused it).
//
// This is the single choke point of backend traffic, so the tracing header
// and the per-backend latency histogram both live here: a traced request
// opens a "proxy" span and hands it to the backend as a traceparent header,
// and every answered attempt (even an abandoned hedge) feeds b.latency.
func (g *Gateway) attempt(ctx context.Context, b *backend, path string, payload []byte, force bool, hdr http.Header) fwdResult {
	select {
	case b.inflight <- struct{}{}:
		defer func() { <-b.inflight }()
	default:
		g.met.inflightSpills.Add(1)
		return fwdResult{err: errInflightFull, backend: b}
	}
	if !force && !b.allow(time.Now()) {
		return fwdResult{err: errBreakerOpen, backend: b}
	}
	b.requests.Add(1)
	pctx, psp := obs.StartSpan(ctx, "proxy")
	psp.SetAttr("backend", b.url)
	defer psp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(payload))
	if err != nil {
		return fwdResult{err: err, backend: b}
	}
	req.Header.Set("Content-Type", "application/json")
	copyAuth(req.Header, hdr)
	if tp := obs.Traceparent(pctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	t0 := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		psp.SetAttr("error", err.Error())
		if ctx.Err() != nil {
			// The gateway abandoned this attempt (a hedge rival won, or the
			// client went away) — that says nothing about the backend's
			// health, so it must not feed the breaker: penalizing won races
			// would open breakers on perfectly healthy shards and destroy
			// the cache-affinity routing. Slow-but-alive backends are the
			// probe loop's problem, not the breaker's.
			b.absolve()
			return fwdResult{err: err, backend: b}
		}
		b.failures.Add(1)
		b.report(false, time.Now(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		return fwdResult{err: err, backend: b}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxRespBytes))
	if err != nil {
		psp.SetAttr("error", err.Error())
		if ctx.Err() != nil {
			b.absolve()
			return fwdResult{err: err, backend: b}
		}
		b.failures.Add(1)
		b.report(false, time.Now(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		return fwdResult{err: err, backend: b}
	}
	b.latency.Observe(time.Since(t0))
	psp.SetAttrInt("status", int64(resp.StatusCode))
	out := fwdResult{status: resp.StatusCode, body: body, backend: b}
	ok := out.authoritative()
	if !ok {
		b.failures.Add(1)
	}
	b.report(ok, time.Now(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
	return out
}

// copyAuth forwards the tenant-identifying headers (and only those) from an
// incoming request to a backend request: admission and QoS accounting happen
// on the backend, so it must see the same API key the client presented.
func copyAuth(dst, src http.Header) {
	if src == nil {
		return
	}
	for _, h := range []string{"Authorization", "X-Api-Key"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// candidateOrder is the ring walk for key, partitioned into available
// backends first (probe-healthy, breaker admitting) and the rest as a
// last-resort tail. Relative ring order is preserved within each part, so
// the home shard stays first whenever it is up.
func (g *Gateway) candidateOrder(key string) (order []*backend, forceFrom int) {
	idxs := g.ring.candidates(key)
	now := time.Now()
	var preferred, rest []*backend
	for _, i := range idxs {
		b := g.backends[i]
		if b.available(now) {
			preferred = append(preferred, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(preferred, rest...), len(preferred)
}

// forward runs the hedged failover loop: try candidates in ring order,
// advancing immediately on refusal and racing the next candidate after
// HedgeAfter of silence. The first authoritative answer wins and cancels
// the rest. Safe to re-execute on several shards because solve results are
// deterministic functions of the matrix (DESIGN.md §10).
func (g *Gateway) forward(ctx context.Context, key, path string, payload []byte, hdr http.Header) fwdResult {
	order, forceFrom := g.candidateOrder(key)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan fwdResult, len(order))
	next := 0
	launch := func() bool {
		if next >= len(order) {
			return false
		}
		b, force := order[next], next >= forceFrom
		next++
		go func() { results <- g.attempt(ctx, b, path, payload, force, hdr) }()
		return true
	}
	launch()
	pending := 1

	hedge := time.NewTimer(hedgeDelay(g.cfg.HedgeAfter))
	defer hedge.Stop()

	var lastRefusal fwdResult
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.authoritative() {
				return r
			}
			lastRefusal = r
			if launch() {
				pending++
				g.met.failovers.Add(1)
				hedge.Reset(hedgeDelay(g.cfg.HedgeAfter))
			}
		case <-hedge.C:
			if launch() {
				pending++
				g.met.hedges.Add(1)
			}
			hedge.Reset(hedgeDelay(g.cfg.HedgeAfter))
		case <-ctx.Done():
			return fwdResult{err: ctx.Err()}
		}
	}
	if lastRefusal.err == nil && lastRefusal.status != 0 {
		// Every candidate refused but at least one answered (429/5xx):
		// relay the most recent refusal so the client sees the fleet's
		// actual state (e.g. everyone draining → 503).
		return lastRefusal
	}
	if lastRefusal.err == nil {
		lastRefusal.err = errAllRefused
	}
	return lastRefusal
}

// hedgeDelay maps the HedgeAfter config (negative = off) onto a timer
// duration, using an effectively-infinite delay when hedging is disabled.
func hedgeDelay(d time.Duration) time.Duration {
	if d <= 0 {
		return 24 * time.Hour
	}
	return d
}

// ---------------------------------------------------------------------------
// Solve path.

// solveItem is one request's routing state, shared by the solve and batch
// paths.
type solveItem struct {
	req     *wire.SolveRequest
	m       *bitmat.Matrix
	fp      *bitmat.Fingerprint
	exact   bool               // canonical form usable: route + lift through fp
	payload *wire.SolveRequest // see shardRequest; nil until first needed
}

// prepare fingerprints one parsed request and decides how it routes.
func prepare(req *wire.SolveRequest, m *bitmat.Matrix) *solveItem {
	it := &solveItem{req: req, m: m, fp: bitmat.ComputeFingerprint(m)}
	it.exact = it.fp.Exact && it.fp.Canonical.Rows() > 0 && it.fp.Canonical.Cols() > 0
	return it
}

// shardRequest returns the request the shard receives: the canonical
// matrix for exact fingerprints (so equivalent requests present
// byte-identical bodies to the shard), the original request otherwise. A
// degenerate canonical form (all-zero matrix → 0×0) is forwarded as-is:
// backends handle it, and its fingerprint still pins the shard. Built on
// first use, since a local hit never forwards.
func (it *solveItem) shardRequest() *wire.SolveRequest {
	if it.payload == nil {
		it.payload = it.req
		if it.exact {
			it.payload = &wire.SolveRequest{Matrix: it.fp.Canonical.String(), Options: it.req.Options}
		}
	}
	return it.payload
}

// liftJSON maps a backend's canonical-space wire result (a proxied answer
// or a job result) onto the item's request matrix, in index space
// (solvecache.LiftIndices). The backend's own statistics and cache marking
// carry over unchanged.
func (it *solveItem) liftJSON(canon *wire.ResultJSON) (*wire.ResultJSON, error) {
	out := *canon
	out.Partition = make([]wire.RectJSON, len(canon.Partition))
	err := solvecache.LiftIndices(it.fp, it.m, len(canon.Partition),
		func(k int) ([]int, []int) { return canon.Partition[k].Rows, canon.Partition[k].Cols },
		func(k int, rows, cols []int) { out.Partition[k] = wire.RectJSON{Rows: rows, Cols: cols} })
	if err != nil {
		return nil, err
	}
	out.Fingerprint = it.fp.Hash
	out.Depth = len(out.Partition)
	return &out, nil
}

// localHit answers an item from the gateway-local tier, exactly as ebmfd
// answers a hit: solvecache.Lookup lifts the cached canonical partition
// onto the request matrix and marks the result as a cache hit. ok is false
// when the item must go to a backend: the tier is off, the fingerprint is
// inexact, the key is absent, or its entry failed to lift (and was
// dropped).
func (g *Gateway) localHit(it *solveItem) (*wire.ResultJSON, bool) {
	if !it.exact || g.cache == nil {
		return nil, false
	}
	res, rects, ok := g.cache.Lookup(it.fp, it.m)
	if !ok {
		return nil, false
	}
	return wire.FromIndexed(res, it.fp.Hash, rects), true
}

// keep follows every lifted proxied answer: a proved-optimal canonical
// result enters the local tier and, unless the backend served it from its
// own cache (those were replicated when first solved), is replicated to the
// key's ring successors.
func (g *Gateway) keep(it *solveItem, canon *wire.ResultJSON, served *backend) {
	meta := canon.Meta()
	if !solvecache.Cacheable(&meta) {
		return
	}
	if g.cache != nil {
		g.cache.SeedIndexed(it.fp.Hash, &meta, it.fp.Canonical.Rows(), it.fp.Canonical.Cols(), canon.Partition)
	}
	if !canon.CacheHit {
		g.replicate(it.fp.Hash, it.shardRequest().Matrix, canon, served)
	}
}

// solveOne routes one prepared item: local tier, then the hedged forward
// to its fingerprint shard, then lifting. It returns the HTTP status and
// the response value to encode (a *wire.ResultJSON or wire.ErrorResponse),
// or raw bytes to relay verbatim.
func (g *Gateway) solveOne(ctx context.Context, it *solveItem, hdr http.Header) (int, any, []byte) {
	if res, ok := g.localHit(it); ok {
		return http.StatusOK, res, nil
	}
	fwd := it.shardRequest()
	// Each newline of the matrix text is escaped to two bytes.
	payload := wire.AppendSolveRequest(make([]byte, 0, len(fwd.Matrix)+strings.Count(fwd.Matrix, "\n")+64), fwd)
	fr := g.forward(ctx, it.fp.Hash, "/v1/solve", payload, hdr)
	if fr.err != nil {
		if ctx.Err() != nil {
			return statusClientClosedRequest, wire.Errorf(wire.CodeClientGone, "%v", ctx.Err()), nil
		}
		g.met.failed.Add(1)
		return http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "all backends refused: %v", fr.err), nil
	}
	if fr.status != http.StatusOK {
		// Authoritative non-200 (or everyone-refused 429/503/5xx): relay the
		// backend's structured error body and status unchanged.
		if fr.status >= 500 || fr.status == http.StatusTooManyRequests {
			g.met.failed.Add(1)
		}
		return fr.status, nil, fr.body
	}
	if !it.exact {
		g.met.relayed.Add(1)
		return http.StatusOK, nil, g.stitchRelay(ctx, fr.body)
	}
	var canon wire.ResultJSON
	if err := wire.DecodeResult(fr.body, &canon); err != nil {
		g.met.failed.Add(1)
		return http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "bad backend response: %v", err), nil
	}
	// Graft the backend's span subtree into this request's trace, then strip
	// it: the stitched trace lives on the gateway's /v1/debug/traces, and
	// neither clients nor replication fills should carry backend spans.
	// Must happen before liftJSON copies the result.
	g.stitch(ctx, &canon)
	if canon.CacheHit {
		g.met.remoteHits.Add(1)
	}
	res, err := it.liftJSON(&canon)
	if err != nil {
		g.met.failed.Add(1)
		return http.StatusBadGateway, wire.Errorf(wire.CodeUpstream, "%v", err), nil
	}
	g.keep(it, &canon, fr.backend)
	return http.StatusOK, res, nil
}

// stitch grafts a backend response's span subtree into the current request's
// trace and strips it from the result. The backend root span's parent is the
// proxy span's ID (sent in the traceparent header), so the graft is a plain
// append — the tree links itself up at read time. Safe on untraced requests
// and trace-less responses.
func (g *Gateway) stitch(ctx context.Context, canon *wire.ResultJSON) {
	if canon.Trace == nil {
		return
	}
	if sp := obs.FromContext(ctx); sp != nil {
		spans, progress := obs.FromJSON(canon.Trace)
		sp.Merge(spans, progress)
	}
	canon.Trace = nil
}

// stitchRelay is stitch for the inexact-fingerprint relay path, where the
// response is normally passed through verbatim: when the backend attached a
// trace, the body is decoded, stitched, stripped and re-encoded so clients
// never see backend spans. Bodies without a trace relay untouched.
func (g *Gateway) stitchRelay(ctx context.Context, body []byte) []byte {
	if !bytes.Contains(body, []byte(`"trace"`)) {
		return body
	}
	var canon wire.ResultJSON
	if err := wire.DecodeResult(body, &canon); err != nil || canon.Trace == nil {
		return body
	}
	g.stitch(ctx, &canon)
	return wire.AppendResultJSON(nil, &canon)
}

// statusClientClosedRequest mirrors ebmfd's use of nginx's non-standard 499
// for requests whose client went away mid-flight.
const statusClientClosedRequest = 499
