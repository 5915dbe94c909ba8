package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// gwMetrics holds the gateway's counters; all atomics, snapshotted without
// a lock (eventually consistent across fields, fine for monitoring).
type gwMetrics struct {
	solveRequests atomic.Int64
	batchRequests atomic.Int64
	badRequests   atomic.Int64
	failed        atomic.Int64 // requests/items with no authoritative answer

	jobSubmits   atomic.Int64 // POST /v1/jobs received
	jobsAccepted atomic.Int64 // submissions a backend accepted (202)
	jobStreams   atomic.Int64 // SSE event streams proxied
	jobsRehomed  atomic.Int64 // jobs resubmitted to a new backend after their home died

	remoteHits     atomic.Int64 // backend answered with cache_hit=true
	relayed        atomic.Int64 // inexact-fingerprint responses passed through unlifted
	hedges         atomic.Int64 // attempts launched by the hedge timer
	failovers      atomic.Int64 // attempts launched after a refusal
	inflightSpills atomic.Int64 // attempts skipped at the per-backend in-flight cap

	// Cache-fill replication counters.
	fillsSent      atomic.Int64 // fill requests issued to ring successors
	fillsStored    atomic.Int64 // fills the target stored (fresh for it)
	fillsDuplicate atomic.Int64 // fills the target already had
	fillsFailed    atomic.Int64 // fills refused or unreachable
	fillsDropped   atomic.Int64 // fills skipped at the concurrency cap

	// solveHist is the gateway's end-to-end /v1/solve latency (decode to
	// answer, local hits included). Per-backend round-trip histograms live on
	// the backends themselves (backend.latency).
	solveHist obs.Histogram
}

// MetricsSnapshot is the GET /v1/metrics response body: gateway-level
// counters plus the live per-backend state.
type MetricsSnapshot struct {
	UptimeMS int64            `json:"uptime_ms"`
	Requests GWRequestMetrics `json:"requests"`
	// Latency is end-to-end /v1/solve time at the gateway (local cache hits
	// included); Proxy merges every backend's round-trip histogram, so
	// Latency minus Proxy percentile-wise approximates gateway overhead.
	Latency     obs.HistSnapshot   `json:"latency"`
	Proxy       obs.HistSnapshot   `json:"proxy_latency"`
	Jobs        GWJobMetrics       `json:"jobs"`
	Routing     RoutingMetrics     `json:"routing"`
	Cache       GWCacheMetrics     `json:"cache"`
	Replication ReplicationMetrics `json:"replication"`
	Backends    []BackendStatus    `json:"backends"`
}

// ReplicationMetrics aggregates the cache-fill replication path.
type ReplicationMetrics struct {
	Targets   int   `json:"targets"` // configured successors per fresh result
	Sent      int64 `json:"sent"`
	Stored    int64 `json:"stored"`
	Duplicate int64 `json:"duplicate"`
	Failed    int64 `json:"failed"`
	Dropped   int64 `json:"dropped"`
}

// GWRequestMetrics counts gateway requests by disposition.
type GWRequestMetrics struct {
	Solve  int64 `json:"solve"`
	Batch  int64 `json:"batch"`
	Bad    int64 `json:"bad"`
	Failed int64 `json:"failed"`
}

// GWJobMetrics counts the async-job proxy path.
type GWJobMetrics struct {
	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Streams   int64 `json:"streams"`
	Rehomed   int64 `json:"rehomed"` // re-homed after a dead backend
	Routes    int   `json:"routes"`  // live gateway-ID → backend mappings
}

// RoutingMetrics aggregates the failover machinery's behaviour.
type RoutingMetrics struct {
	Hedges         int64 `json:"hedges"`
	Failovers      int64 `json:"failovers"`
	InflightSpills int64 `json:"inflight_spills"`
	Relayed        int64 `json:"relayed_inexact"`
}

// GWCacheMetrics splits hits between the gateway-local LRU and the
// backends' fingerprint caches (as observed through cache_hit responses).
type GWCacheMetrics struct {
	Local      LocalCacheStats `json:"local"`
	RemoteHits int64           `json:"remote_hits"`
}

// LocalCacheStats is the /v1/metrics view of the gateway-local tier, a
// solvecache.Cache consulted with Lookup. Misses counts lookups that found
// no entry; Stores counts proved-optimal proxied answers it took in.
type LocalCacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Stores       int64 `json:"stores"`
	Evictions    int64 `json:"evictions"`
	LiftFailures int64 `json:"lift_failures"`
	Entries      int   `json:"entries"`
	Capacity     int   `json:"capacity"`
}

// localCacheStats reads the local tier's counters (all zero when it is off).
func (g *Gateway) localCacheStats() LocalCacheStats {
	if g.cache == nil {
		return LocalCacheStats{}
	}
	s := g.cache.Stats()
	return LocalCacheStats{
		Hits:         s.Hits,
		Misses:       s.Misses,
		Stores:       s.Stores,
		Evictions:    s.Evictions,
		LiftFailures: s.LiftFailures,
		Entries:      s.Entries,
		Capacity:     g.cfg.LocalCacheSize,
	}
}

// BackendStatus is one backend's live state.
type BackendStatus struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker"`
	Inflight int    `json:"inflight"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
	// Reopens counts breaker open transitions; climbing reopens with a
	// still-open breaker means the backoff is in its exponential phase.
	Reopens int64 `json:"reopens"`
	// Latency is this backend's answered-attempt round-trip histogram.
	Latency obs.HistSnapshot `json:"latency"`
}

// MetricsSnapshot assembles the /v1/metrics body.
func (g *Gateway) MetricsSnapshot() MetricsSnapshot {
	m := &g.met
	snap := MetricsSnapshot{
		UptimeMS: timeSince(g.started),
		Requests: GWRequestMetrics{
			Solve:  m.solveRequests.Load(),
			Batch:  m.batchRequests.Load(),
			Bad:    m.badRequests.Load(),
			Failed: m.failed.Load(),
		},
		Jobs: GWJobMetrics{
			Submitted: m.jobSubmits.Load(),
			Accepted:  m.jobsAccepted.Load(),
			Streams:   m.jobStreams.Load(),
			Rehomed:   m.jobsRehomed.Load(),
			Routes:    g.jobs.len(),
		},
		Routing: RoutingMetrics{
			Hedges:         m.hedges.Load(),
			Failovers:      m.failovers.Load(),
			InflightSpills: m.inflightSpills.Load(),
			Relayed:        m.relayed.Load(),
		},
		Cache: GWCacheMetrics{
			Local:      g.localCacheStats(),
			RemoteHits: m.remoteHits.Load(),
		},
		Replication: ReplicationMetrics{
			Targets:   g.cfg.ReplicateFills,
			Sent:      m.fillsSent.Load(),
			Stored:    m.fillsStored.Load(),
			Duplicate: m.fillsDuplicate.Load(),
			Failed:    m.fillsFailed.Load(),
			Dropped:   m.fillsDropped.Load(),
		},
	}
	snap.Latency = m.solveHist.Snapshot()
	now := time.Now()
	var proxy obs.HistogramData
	for _, b := range g.backends {
		bd := b.latency.Data()
		proxy.Merge(bd)
		snap.Backends = append(snap.Backends, BackendStatus{
			URL:      b.url,
			Healthy:  b.healthy.Load(),
			Breaker:  b.breakerStateNow(now).String(),
			Inflight: len(b.inflight),
			Requests: b.requests.Load(),
			Failures: b.failures.Load(),
			Reopens:  b.reopens.Load(),
			Latency:  bd.Snapshot(),
		})
	}
	snap.Proxy = proxy.Snapshot()
	return snap
}

func timeSince(t time.Time) int64 { return time.Since(t).Milliseconds() }
