package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solvecache"
	"repro/internal/store"
	"repro/internal/wire"
)

// metrics holds the service counters. All fields are atomics so the handlers
// never serialize on a stats lock; the snapshot is eventually consistent
// across fields, which is fine for monitoring.
type metrics struct {
	solveRequests  atomic.Int64
	batchRequests  atomic.Int64
	badRequests    atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedQuota  atomic.Int64
	rejectedDrain  atomic.Int64
	rejectedBatch  atomic.Int64
	rejectedAuth   atomic.Int64
	clientGone     atomic.Int64
	internalErrors atomic.Int64

	// Job counters (POST /v1/jobs lifecycle).
	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsCanceled  atomic.Int64
	jobsFailed    atomic.Int64
	jobsShed      atomic.Int64 // degraded to the heuristic-only path
	jobsRecovered atomic.Int64 // re-admitted from the journal after restart
	jobStreams    atomic.Int64 // /events subscriptions opened

	// Webhook counters (terminal callback_url deliveries).
	webhooksDelivered atomic.Int64 // 2xx acknowledged
	webhooksRetried   atomic.Int64 // individual failed attempts
	webhooksAbandoned atomic.Int64 // gave up this run (journal retries after restart)

	// Fill counters (POST /v1/fill, the cache-fill replication path).
	fillRequests  atomic.Int64
	fillStored    atomic.Int64
	fillDuplicate atomic.Int64
	fillRejected  atomic.Int64

	solves     atomic.Int64
	optimal    atomic.Int64
	timedOut   atomic.Int64
	canceled   atomic.Int64
	satCalls   atomic.Int64
	conflicts  atomic.Int64
	depthTotal atomic.Int64

	// Latency histograms (log-bucketed, lock-free). solveHist covers the
	// whole solve wall time per request; packHist and satHist split the
	// stages (observed only for solves that actually ran the pipeline —
	// cache hits would drown the stage split in zeros); queueHist is
	// admission wait. The old avg/max scalar fields derive from solveHist
	// now, which also fixes the stale-max bug: the high-water mark never
	// decayed, so one slow solve at startup pinned max_ns forever. The
	// histogram's max is windowed (~2 minutes).
	solveHist obs.Histogram
	packHist  obs.Histogram
	satHist   obs.Histogram
	queueHist obs.Histogram
}

// countRejection buckets a failed solveOne by its wire code (falling back to
// the HTTP status for codes without a dedicated counter).
func (m *metrics) countRejection(e *apiError) {
	switch e.code {
	case wire.CodeQueueFull:
		m.rejectedQueue.Add(1)
	case wire.CodeQuotaExceeded:
		m.rejectedQuota.Add(1)
	case wire.CodeDraining:
		m.rejectedDrain.Add(1)
	case wire.CodeClientGone:
		m.clientGone.Add(1)
	default:
		switch e.status {
		case http.StatusBadRequest:
			m.badRequests.Add(1)
		default:
			m.internalErrors.Add(1)
		}
	}
}

// observeSolve records one completed solve and its wall-clock latency.
// Per-stage times come from the Result itself (zero on cache hits by the
// Result.CacheHit contract), so the stage split mirrors actual work done.
func (m *metrics) observeSolve(res *core.Result, wall time.Duration) {
	m.solves.Add(1)
	m.solveHist.Observe(wall)
	if !res.CacheHit {
		m.packHist.Observe(res.PackTime)
		m.satHist.Observe(res.SATTime)
	}
	m.satCalls.Add(int64(res.SATCalls))
	m.conflicts.Add(res.Conflicts)
	m.depthTotal.Add(int64(res.Depth))
	if res.Optimal {
		m.optimal.Add(1)
	}
	if res.TimedOut {
		m.timedOut.Add(1)
	}
	if res.Canceled {
		m.canceled.Add(1)
	}
}

// MetricsSnapshot is the GET /v1/metrics response body.
type MetricsSnapshot struct {
	UptimeMS int64            `json:"uptime_ms"`
	Requests RequestMetrics   `json:"requests"`
	Jobs     JobMetrics       `json:"jobs"`
	Webhooks WebhookMetrics   `json:"webhooks"`
	Solves   SolveMetrics     `json:"solves"`
	Queue    QueueMetrics     `json:"queue"`
	Cache    solvecache.Stats `json:"cache"`
	HitRate  float64          `json:"cache_hit_rate"`
	// Fills reports the replication endpoint's activity; Store the durable
	// tier's state (nil when no store is attached); Journal the job
	// journal's state (nil when jobs are memory-only).
	Fills   FillMetrics         `json:"fills"`
	Store   *store.Stats        `json:"store,omitempty"`
	Journal *store.JournalStats `json:"journal,omitempty"`
}

// FillMetrics counts POST /v1/fill dispositions.
type FillMetrics struct {
	Requests  int64 `json:"requests"`
	Stored    int64 `json:"stored"`
	Duplicate int64 `json:"duplicate"`
	Rejected  int64 `json:"rejected"`
}

// RequestMetrics counts requests by disposition.
type RequestMetrics struct {
	Solve          int64 `json:"solve"`
	Batch          int64 `json:"batch"`
	Bad            int64 `json:"bad"`
	RejectedQueue  int64 `json:"rejected_queue_full"`
	RejectedQuota  int64 `json:"rejected_quota"`
	RejectedDrain  int64 `json:"rejected_draining"`
	RejectedBatch  int64 `json:"rejected_batch_size"`
	RejectedAuth   int64 `json:"rejected_auth"`
	ClientGone     int64 `json:"client_gone"`
	InternalErrors int64 `json:"internal_errors"`
}

// JobMetrics counts the async job surface's lifecycle dispositions.
type JobMetrics struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	Recovered int64 `json:"recovered"` // journal-replayed after a restart
	Streams   int64 `json:"streams"`
	Live      int   `json:"live"` // jobs currently in the registry
}

// WebhookMetrics counts terminal callback deliveries.
type WebhookMetrics struct {
	Delivered int64 `json:"delivered"`
	Retried   int64 `json:"retried"`
	Abandoned int64 `json:"abandoned"`
}

// SolveMetrics aggregates completed solves, with the per-stage split carried
// over from Result timings. The scalar total/avg/max/pack/sat fields are
// derived from the histograms and kept for compatibility; MaxNS is windowed
// (largest observation of the last ~2 minutes), not a lifetime high-water
// mark.
type SolveMetrics struct {
	Completed  int64 `json:"completed"`
	Optimal    int64 `json:"optimal"`
	TimedOut   int64 `json:"timed_out"`
	Canceled   int64 `json:"canceled"`
	TotalNS    int64 `json:"total_ns"`
	AvgNS      int64 `json:"avg_ns"`
	MaxNS      int64 `json:"max_ns"`
	PackNS     int64 `json:"pack_ns"`
	SATNS      int64 `json:"sat_ns"`
	SATCalls   int64 `json:"sat_calls"`
	Conflicts  int64 `json:"conflicts"`
	DepthTotal int64 `json:"depth_total"`
	// Latency is the full solve wall time per request (cache hits included);
	// PackLatency and SATLatency split the pipeline stages of non-cached
	// solves; QueueWait is time spent in admission control.
	Latency     obs.HistSnapshot `json:"latency"`
	PackLatency obs.HistSnapshot `json:"pack_latency"`
	SATLatency  obs.HistSnapshot `json:"sat_latency"`
	QueueWait   obs.HistSnapshot `json:"queue_wait"`
}

// QueueMetrics reports the admission-control state, per-tenant scheduler
// included.
type QueueMetrics struct {
	Depth         int64            `json:"depth"`
	Running       int              `json:"running"`
	MaxConcurrent int              `json:"max_concurrent"`
	MaxQueue      int              `json:"max_queue"`
	Tenants       []TenantSnapshot `json:"tenants"`
}

func (s *Server) metricsSnapshot() MetricsSnapshot {
	m := &s.met
	queued, running, tenants := s.sched.snapshot()
	snap := MetricsSnapshot{
		UptimeMS: time.Since(s.started).Milliseconds(),
		Requests: RequestMetrics{
			Solve:          m.solveRequests.Load(),
			Batch:          m.batchRequests.Load(),
			Bad:            m.badRequests.Load(),
			RejectedQueue:  m.rejectedQueue.Load(),
			RejectedQuota:  m.rejectedQuota.Load(),
			RejectedDrain:  m.rejectedDrain.Load(),
			RejectedBatch:  m.rejectedBatch.Load(),
			RejectedAuth:   m.rejectedAuth.Load(),
			ClientGone:     m.clientGone.Load(),
			InternalErrors: m.internalErrors.Load(),
		},
		Jobs: JobMetrics{
			Submitted: m.jobsSubmitted.Load(),
			Done:      m.jobsDone.Load(),
			Canceled:  m.jobsCanceled.Load(),
			Failed:    m.jobsFailed.Load(),
			Shed:      m.jobsShed.Load(),
			Recovered: m.jobsRecovered.Load(),
			Streams:   m.jobStreams.Load(),
			Live:      s.jobs.len(),
		},
		Webhooks: WebhookMetrics{
			Delivered: m.webhooksDelivered.Load(),
			Retried:   m.webhooksRetried.Load(),
			Abandoned: m.webhooksAbandoned.Load(),
		},
		Solves: SolveMetrics{
			Completed:   m.solves.Load(),
			Optimal:     m.optimal.Load(),
			TimedOut:    m.timedOut.Load(),
			Canceled:    m.canceled.Load(),
			SATCalls:    m.satCalls.Load(),
			Conflicts:   m.conflicts.Load(),
			DepthTotal:  m.depthTotal.Load(),
			Latency:     m.solveHist.Snapshot(),
			PackLatency: m.packHist.Snapshot(),
			SATLatency:  m.satHist.Snapshot(),
			QueueWait:   m.queueHist.Snapshot(),
		},
		Queue: QueueMetrics{
			Depth:         int64(queued),
			Running:       running,
			MaxConcurrent: s.cfg.MaxConcurrent,
			MaxQueue:      s.cfg.MaxQueue,
			Tenants:       tenants,
		},
		Cache: s.cache.Stats(),
		Fills: FillMetrics{
			Requests:  m.fillRequests.Load(),
			Stored:    m.fillStored.Load(),
			Duplicate: m.fillDuplicate.Load(),
			Rejected:  m.fillRejected.Load(),
		},
	}
	if st := s.cache.Store(); st != nil {
		stats := st.Stats()
		snap.Store = &stats
	}
	if s.cfg.Journal != nil {
		stats := s.cfg.Journal.Stats()
		snap.Journal = &stats
	}
	// Compatibility scalars, derived from the histograms.
	snap.Solves.TotalNS = snap.Solves.Latency.SumNS
	snap.Solves.AvgNS = snap.Solves.Latency.AvgNS
	snap.Solves.MaxNS = snap.Solves.Latency.MaxNS
	snap.Solves.PackNS = snap.Solves.PackLatency.SumNS
	snap.Solves.SATNS = snap.Solves.SATLatency.SumNS
	snap.HitRate = snap.Cache.HitRate()
	return snap
}
