// Package server implements the ebmfd solve service: an HTTP JSON API over
// the cached solve pipeline.
//
//	POST /v1/solve    one matrix in, one wire.ResultJSON out (synchronous)
//	POST /v1/batch    several matrices, results in request order
//	POST /v1/jobs     async submit: 202 + job ID before any work runs
//	GET  /v1/jobs/{id}          poll a job snapshot
//	DELETE /v1/jobs/{id}        cancel (propagates into the SAT search)
//	GET  /v1/jobs/{id}/events   SSE anytime progress + terminal result
//	POST /v1/fill     cache-fill replication: seed a proved-optimal result
//	GET  /v1/healthz  liveness (503 while draining)
//	GET  /v1/metrics  counters: solves, cache hit rate, queue, latencies
//
// Four service concerns live here, in front of internal/solvecache:
//
//   - Admission control. At most MaxConcurrent solves run at once; up to
//     MaxQueue more may wait. Anything beyond that is rejected immediately
//     with 429 — a solve is CPU-bound, so letting requests pile up only
//     converts overload into timeouts. Waiting requests abort when the
//     client disconnects.
//   - Tenant QoS. API keys resolve to tenants (Config.Tenants); waiting
//     requests sit in per-tenant queues drained by deficit round robin in
//     weight proportion within strict priority lanes, with optional
//     per-tenant outstanding-work quotas. Jobs that opted in degrade to a
//     heuristic-only answer instead of a 429 when admission would reject
//     them.
//   - Budget mapping. Per-request timeout/conflict budgets (clamped to
//     configured maxima) become a context deadline and core.Options for
//     that request; the deadline starts after admission, so queueing time
//     is not billed against the solve.
//   - Draining. BeginDrain flips the server to reject new work (healthz
//     turns 503 so balancers stop routing); in-flight solves finish and are
//     flushed by http.Server.Shutdown.
package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solvecache"
	"repro/internal/store"
)

// Config tunes the service. The zero value means "all defaults".
type Config struct {
	// CacheCapacity is the result-cache entry cap (solvecache.DefaultCapacity
	// when <= 0).
	CacheCapacity int
	// MaxConcurrent bounds solves running at once (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a solve slot (default 64;
	// negative means no waiting — reject unless a slot is free).
	MaxQueue int
	// DefaultTimeout applies when a request asks for no timeout (default
	// 30s; negative means no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request timeouts (default 2m).
	MaxTimeout time.Duration
	// MaxConflictBudget clamps per-request conflict budgets; 0 keeps the
	// base options' budget as the ceiling semantics-free (no clamp).
	MaxConflictBudget int64
	// MaxBodyBytes caps request bodies (default 4 MiB).
	MaxBodyBytes int64
	// MaxMatrixEntries caps rows×cols of a submitted matrix (default 1<<20).
	MaxMatrixEntries int
	// MaxBatch caps the number of requests in one batch (default 64).
	MaxBatch int
	// Tenants declares the API-key → tenant map for QoS scheduling. The
	// built-in "default" tenant (weight 1, no key, no quota) always exists
	// for unauthenticated traffic; an entry named "default" overrides its
	// weight/quota/priority instead of adding a tenant.
	Tenants []TenantConfig
	// MaxJobs caps jobs retained in the registry, terminal ones included
	// (default 1024; the oldest terminal jobs are evicted first).
	MaxJobs int
	// JobTTL is how long a terminal job stays pollable before it may be
	// evicted even without registry pressure (default 10m).
	JobTTL time.Duration
	// Options is the base solver configuration (default: core defaults with
	// a 2M conflict budget — an unbudgeted exact solver must not be exposed
	// to arbitrary clients).
	Options *core.Options
	// Store, when non-nil, is the durable result tier attached beneath the
	// cache: proved-optimal results are written through to it and a restart
	// serves the whole history warm. The caller owns the store's lifecycle —
	// open it before New and close it after http.Server.Shutdown returns, so
	// in-flight solves can still write through during a drain.
	Store *store.Store
	// Journal, when non-nil, is the durable job journal: accepted
	// submissions, terminal snapshots, and webhook acks are logged through
	// it, and New replays it — re-admitting unfinished jobs under their old
	// IDs and resuming undelivered webhooks. The caller owns the journal's
	// lifecycle, like Store's: open before New, close after Shutdown+Close.
	Journal *store.Journal
	// WebhookAllow is the callback_url allowlist: entries are bare hosts
	// ("hooks.internal", "10.0.0.7:9000") or URL prefixes
	// ("http://hooks.internal:9000/ebmf"). Empty means callback_url is
	// rejected at submit — webhooks are a server-originated request, so the
	// operator must opt destinations in.
	WebhookAllow []string
	// WebhookTimeout bounds one delivery attempt (default 5s).
	WebhookTimeout time.Duration
	// WebhookRetryBase is the first retry delay, doubling per failure
	// jittered (default 500ms); WebhookRetryMax caps the delay (default
	// 30s); WebhookMaxRetries bounds attempts per process run (default 8 —
	// the journal re-attempts after a restart).
	WebhookRetryBase  time.Duration
	WebhookRetryMax   time.Duration
	WebhookMaxRetries int
	// Logger receives one line per request (default: discard).
	Logger *log.Logger
	// Tracer records solve traces for GET /v1/debug/traces and stitches
	// gateway-forwarded traceparent headers into cross-tier traces (default:
	// a tracer with obs defaults — every request traced, ring of 64).
	Tracer *obs.Tracer
}

// DefaultConflictBudget bounds SAT conflicts for requests that do not ask
// for a budget, matching the ebmf CLI default.
const DefaultConflictBudget = 2_000_000

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxMatrixEntries <= 0 {
		c.MaxMatrixEntries = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.WebhookTimeout <= 0 {
		c.WebhookTimeout = 5 * time.Second
	}
	if c.WebhookRetryBase <= 0 {
		c.WebhookRetryBase = 500 * time.Millisecond
	}
	if c.WebhookRetryMax <= 0 {
		c.WebhookRetryMax = 30 * time.Second
	}
	if c.WebhookMaxRetries <= 0 {
		c.WebhookMaxRetries = 8
	}
	if c.Options == nil {
		opts := core.DefaultOptions()
		opts.ConflictBudget = DefaultConflictBudget
		c.Options = &opts
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{})
	}
	return c
}

// Server is the ebmfd HTTP service. Create with New; serve via Handler;
// stop background goroutines with Close after http.Server.Shutdown.
type Server struct {
	cfg      Config
	cache    *solvecache.Cache
	sched    *scheduler // tenant-aware admission: slots, queues, fair share
	jobs     *jobRegistry
	webhooks *webhookDeliverer
	shedSem  chan struct{} // bounds concurrent heuristic-only shed solves
	draining atomic.Bool
	started  time.Time
	mux      *http.ServeMux
	met      metrics
	closed   sync.Once
}

// New builds a server from cfg. When cfg.Journal is set, the journal's
// unfinished jobs are re-admitted (and undelivered webhooks resumed) before
// New returns, so a restarted daemon answers polls for pre-crash job IDs
// from its first request on.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   solvecache.New(cfg.CacheCapacity),
		sched:   newScheduler(cfg.MaxConcurrent, cfg.MaxQueue, cfg.Tenants),
		started: time.Now(),
		mux:     http.NewServeMux(),
	}
	s.jobs = newJobRegistry(cfg.MaxJobs, cfg.JobTTL)
	s.shedSem = make(chan struct{}, shedConcurrency)
	if cfg.Store != nil {
		s.cache.AttachStore(cfg.Store)
	}
	s.routes()
	s.webhooks = newWebhookDeliverer(s)
	s.jobs.startJanitor()
	if cfg.Journal != nil {
		s.replayJournal()
	}
	return s
}

// Close stops the server's background goroutines: the job-TTL janitor and
// the webhook deliverer. Call after http.Server.Shutdown; a webhook caught
// mid-retry stays unacked in the journal and is re-delivered by the next
// boot's replay. Close does not wait for running solves (Shutdown does) and
// does not close cfg.Store or cfg.Journal (the caller owns both).
func (s *Server) Close() {
	s.closed.Do(func() {
		s.jobs.stopJanitor()
		if s.webhooks != nil {
			s.webhooks.close()
		}
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return obs.LogRequests(s.cfg.Logger, s.mux) }

// Cache exposes the underlying result cache (stats, test hooks).
func (s *Server) Cache() *solvecache.Cache { return s.cache }

// Tracer exposes the server's tracer (debug endpoints, test hooks).
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// BeginDrain makes the server reject new work with 503 (and healthz report
// draining) while in-flight solves complete. Pair with http.Server.Shutdown,
// which waits for the in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Admission control errors.
var (
	errQueueFull = errors.New("server: queue full")
	errDraining  = errors.New("server: draining")
)

// admit acquires a solve slot for the tenant (nil = default), waiting in the
// tenant's queue if necessary. The returned release function must be called
// when the solve finishes. ctx should be the request context, so a
// disconnected client leaves the queue.
func (s *Server) admit(ctx context.Context, t *tenant) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	return s.sched.acquire(ctx, t)
}

// tenantFor resolves the request's API key (Authorization: Bearer <key> or
// X-API-Key) to its tenant. No key means the default tenant; an unknown key
// is errUnknownKey.
func (s *Server) tenantFor(r *http.Request) (*tenant, error) {
	return s.sched.tenantForKey(apiKey(r))
}

// apiKey extracts the request's API key ("" when unauthenticated).
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// solveBudgets resolves the effective options and deadline for one request's
// wire options: defaults overlaid, then clamped to the configured maxima.
func (s *Server) solveBudgets(opts core.Options, timeout time.Duration) (core.Options, time.Duration) {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if s.cfg.MaxConflictBudget > 0 &&
		(opts.ConflictBudget <= 0 || opts.ConflictBudget > s.cfg.MaxConflictBudget) {
		opts.ConflictBudget = s.cfg.MaxConflictBudget
	}
	if timeout > 0 {
		opts.TimeBudget = timeout
	}
	return opts, timeout
}
