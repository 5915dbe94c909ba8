// Command ebmfd serves the depth-optimal addressing solver over HTTP: a
// production-shaped daemon with a canonical-fingerprint result cache,
// request batching and admission control in front of the SAP pipeline.
//
// Usage:
//
//	ebmfd [flags]
//
// Flags:
//
//	-addr A             listen address (default :8421)
//	-cache N            result-cache capacity in entries (default 1024)
//	-concurrency N      max solves running at once (default GOMAXPROCS)
//	-queue N            max solves waiting for a slot (default 64)
//	-default-timeout D  per-solve deadline when the request asks for none (default 30s)
//	-max-timeout D      clamp for per-request timeouts (default 2m)
//	-budget N           default/maximum SAT conflict budget (default 2000000)
//	-max-entries N      reject matrices with more than N cells (default 1048576)
//	-tenants SPEC       tenant map: name:key:weight[:quota[:priority]],... (default: none)
//	-max-jobs N         async jobs retained in the registry (default 1024)
//	-job-ttl D          how long a finished job stays pollable (default 10m)
//	-store DIR          durable result store directory (default: no store)
//	-store-sync MODE    store fsync policy: interval, always, never (default interval)
//	-job-journal DIR    job journal directory: journaled submits survive restarts (default: off)
//	-webhook-allow LIST callback_url allowlist: URL prefixes or hosts, comma-separated (default: webhooks off)
//	-trace-sample N     trace one solve in N (1 = every solve; -1 = tracing off)
//	-slow-solve-ms N    log solves slower than N ms with their span tree (0 = off)
//	-debug-addr A       serve net/http/pprof and expvar on a separate listener (default: off)
//	-quiet              no per-request log lines
//
// With -addr ending in :0 the kernel picks a free port; the actual address
// is printed in the "listening on" log line (scripts parse it from there).
//
// Endpoints:
//
//	POST /v1/solve    {"matrix":"101\n011", "options":{"timeout_ms":500}}
//	POST /v1/batch    {"requests":[{...},{...}]}
//	POST /v1/jobs     async submit: 202 + job ID immediately
//	GET  /v1/jobs/{id}          poll a job snapshot
//	DELETE /v1/jobs/{id}        cancel (propagates into the SAT search)
//	GET  /v1/jobs/{id}/events   SSE anytime progress + terminal result
//	POST /v1/fill     cache-fill replication (gateway-internal)
//	GET  /v1/healthz
//	GET  /v1/metrics
//	GET  /v1/debug/traces   recent and slowest solve traces (span trees + progress)
//
// -tenants maps API keys to tenants with a fair-share weight, an optional
// outstanding-work quota and a strict-priority lane; under contention slots
// are granted by deficit round robin in weight proportion. Example:
//
//	-tenants 'prod:key1:3:0:-1,batch:key2:1:16:1'
//
// With -store, every proved-optimal result is written through to a
// checksummed WAL + snapshot in DIR and reloaded on boot: a restarted
// daemon (even after kill -9) answers its whole history from cache without
// re-solving. The "listening on" line reports how many records loaded.
//
// With -job-journal, every accepted async job is journaled at admission and
// again at its terminal state (same -store-sync fsync policy). A restarted
// daemon replays the journal: unfinished jobs are re-admitted under their
// original IDs (clients polling see "queued" again, never a 404), and with
// -store alongside, already-proved results are served from the store
// instead of re-solved. Terminal webhooks (callback_url on submit, gated by
// -webhook-allow) are journaled too, so a notification that hadn't been
// acknowledged before a crash is retried after the restart.
//
// SIGINT/SIGTERM drains gracefully: healthz flips to 503, new solves are
// rejected, in-flight solves get up to the max timeout to finish, and the
// store is flushed and closed only after the listener has fully drained —
// a result computed during the drain window still reaches the WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", ":8421", "listen address")
	cache := flag.Int("cache", 1024, "result-cache capacity (entries)")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0), "max concurrent solves")
	queue := flag.Int("queue", 64, "max queued solves (0 = reject unless a slot is free)")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-solve deadline when the request asks for none")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "clamp for per-request timeouts")
	budget := flag.Int64("budget", server.DefaultConflictBudget, "default and maximum SAT conflict budget (0 = unlimited, trusted clients only)")
	maxEntries := flag.Int("max-entries", 1<<20, "reject matrices with more cells than this")
	tenantSpec := flag.String("tenants", "", "tenant map: name:key:weight[:quota[:priority]],... (empty = default tenant only)")
	maxJobs := flag.Int("max-jobs", 1024, "async jobs retained in the registry")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "how long a finished job stays pollable")
	storeDir := flag.String("store", "", "durable result store directory (empty = no store)")
	storeSync := flag.String("store-sync", "interval", "store fsync policy: interval, always, never")
	journalDir := flag.String("job-journal", "", "job journal directory (empty = jobs do not survive restarts)")
	webhookAllow := flag.String("webhook-allow", "", "callback_url allowlist: URL prefixes or hosts, comma-separated (empty = webhooks off)")
	traceSample := flag.Int("trace-sample", 1, "trace one solve in N (1 = every solve, negative = off)")
	slowSolveMS := flag.Int64("slow-solve-ms", 0, "log solves slower than this with their span tree (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve pprof and expvar on this separate address (empty = off)")
	quiet := flag.Bool("quiet", false, "no per-request log lines")
	flag.Parse()

	logger := log.New(os.Stderr, "ebmfd: ", log.LstdFlags)
	reqLogger := logger
	if *quiet {
		reqLogger = log.New(io.Discard, "", 0)
	}
	if *queue == 0 {
		*queue = -1 // Config convention: negative = no waiting
	}
	// -budget is both the default for requests that ask for nothing and the
	// clamp for requests that ask for more (0 = unlimited, trusted clients
	// only).
	baseOpts := core.DefaultOptions()
	baseOpts.ConflictBudget = *budget

	tenants, err := server.ParseTenantFlag(*tenantSpec)
	if err != nil {
		logger.Fatalf("-tenants: %v", err)
	}

	var syncPolicy store.SyncPolicy
	switch *storeSync {
	case "interval":
		syncPolicy = store.SyncInterval
	case "always":
		syncPolicy = store.SyncAlways
	case "never":
		syncPolicy = store.SyncNever
	default:
		logger.Fatalf("-store-sync %q: want interval, always, or never", *storeSync)
	}

	// The store outlives the server: opened before New so boot warms the
	// cache from disk, closed only after Shutdown returns so solves that
	// finish during the drain window still reach the WAL.
	var durable *store.Store
	if *storeDir != "" {
		var err error
		durable, err = store.Open(*storeDir, store.Options{Sync: syncPolicy, Logger: logger})
		if err != nil {
			logger.Fatalf("store: %v", err)
		}
	}

	// The job journal follows the same lifecycle as the store: opened before
	// New so the server can replay unfinished jobs during construction,
	// closed last so terminal records and webhook acks written during the
	// drain window reach disk.
	var journal *store.Journal
	if *journalDir != "" {
		var err error
		journal, err = store.OpenJournal(*journalDir, store.Options{Sync: syncPolicy, Logger: logger})
		if err != nil {
			logger.Fatalf("job journal: %v", err)
		}
	}

	tracer := obs.New(obs.Config{
		SampleEvery:   *traceSample,
		SlowThreshold: time.Duration(*slowSolveMS) * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	srv := server.New(server.Config{
		CacheCapacity:     *cache,
		MaxConcurrent:     *concurrency,
		MaxQueue:          *queue,
		DefaultTimeout:    *defaultTimeout,
		MaxTimeout:        *maxTimeout,
		MaxConflictBudget: *budget,
		MaxMatrixEntries:  *maxEntries,
		Tenants:           tenants,
		MaxJobs:           *maxJobs,
		JobTTL:            *jobTTL,
		Options:           &baseOpts,
		Logger:            reqLogger,
		Store:             durable,
		Journal:           journal,
		WebhookAllow:      splitList(*webhookAllow),
		Tracer:            tracer,
	})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug listener (pprof, expvar) is deliberately separate from the
	// serving address: profiles and goroutine dumps must not be reachable by
	// solve clients, so -debug-addr is bound to loopback in practice and off
	// by default.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Fatalf("debug listen: %v", err)
		}
		go func() {
			if err := http.Serve(dln, obs.DebugMux()); err != nil {
				logger.Printf("debug serve: %v", err)
			}
		}()
		logger.Printf("debug listening on %s (pprof, expvar)", dln.Addr())
	}

	// Listen explicitly (instead of ListenAndServe) so -addr :0 works: the
	// log line reports the port the kernel actually assigned, which is what
	// scripts/server_smoke.sh parses to avoid port collisions in CI.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	records := 0
	if durable != nil {
		records = durable.Len()
	}
	var recovered int64
	if journal != nil {
		recovered = journal.Stats().Loaded
	}
	logger.Printf("listening on %s (concurrency=%d queue=%d cache=%d store-records=%d journal-jobs=%d)",
		ln.Addr(), *concurrency, *queue, *cache, records, recovered)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case s := <-sig:
		logger.Printf("%v: draining (in-flight solves get up to %v)", s, *maxTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *maxTimeout+5*time.Second)
		defer cancel()
		exit := 0
		// The store closes after Shutdown returns — even a failed drain has
		// stopped accepting work by then, and solves that did finish during
		// the window must still be flushed to the WAL before exit.
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("drain: %v", err)
			exit = 1
		} else if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			exit = 1
		}
		// Stop the webhook deliverer and job janitor after the listener has
		// drained: an undelivered webhook stays journaled and is retried on
		// the next boot.
		srv.Close()
		if durable != nil {
			if err := durable.Close(); err != nil {
				logger.Printf("store close: %v", err)
				exit = 1
			} else {
				ss := durable.Stats()
				logger.Printf("store flushed (%d records, %d appended this run)",
					ss.Records, ss.Appends)
			}
		}
		if journal != nil {
			js := journal.Stats()
			if err := journal.Close(); err != nil {
				logger.Printf("journal close: %v", err)
				exit = 1
			} else {
				logger.Printf("journal flushed (%d pending jobs, %d undelivered webhooks)",
					js.Pending, js.Undelivered)
			}
		}
		if exit != 0 {
			os.Exit(exit)
		}
		st := srv.Cache().Stats()
		logger.Printf("drained cleanly (cache: %d entries, %.0f%% hit rate)",
			st.Entries, 100*st.HitRate())
	}
}
