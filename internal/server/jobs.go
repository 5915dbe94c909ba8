package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The async job surface:
//
//	POST   /v1/jobs             submit; 202 + job snapshot (state "queued")
//	GET    /v1/jobs/{id}        poll; snapshot with result once done
//	DELETE /v1/jobs/{id}        cancel; propagated into the CDCL search via
//	                            the job context → SolveContext/SetInterrupt
//	GET    /v1/jobs/{id}/events SSE: status transitions, anytime progress
//	                            (best depth, proven lower bound, conflicts,
//	                            per-block position), terminal snapshot
//
// A job is a solve whose lifetime is decoupled from any HTTP request: the
// submit returns immediately, the solve runs under the job's own context,
// and any number of watchers stream its events. Jobs go through the same
// tenant scheduler as sync solves — one admission economy, so a tenant
// cannot bypass its fair share by switching surfaces.
//
// Overload shedding: a job submitted with "degrade": true converts an
// admission rejection (queue full, tenant quota) into a heuristic-only
// answer — the SkipSAT pipeline's row packing plus rank/greedy-fooling
// bounds, optimal=false (the CLI's exit-code-2 semantics) — instead of a
// 429. Sheds bypass the solve slots but are bounded by their own small
// semaphore; they cost milliseconds, not solver minutes.

// jobRegistry owns every live and recently-terminal job, bounded by
// MaxJobs with terminal-first eviction. Terminal jobs queue in finish order
// and leave from the head, past their TTL or over capacity, so each job is
// queued and popped once and live jobs are never looked at. Expiry runs on
// every submit and lookup and on a periodic janitor sweep, so terminal jobs
// expire on schedule even on an otherwise idle daemon.
type jobRegistry struct {
	mu      sync.Mutex
	jobs    map[string]*job
	retired []*job // terminal jobs in finish order, oldest first
	max     int
	ttl     time.Duration
	now     func() time.Time // injectable clock for TTL tests

	janitorStop chan struct{}
	janitorDone chan struct{}
}

func newJobRegistry(max int, ttl time.Duration) *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*job), max: max, ttl: ttl, now: time.Now}
}

// startJanitor begins the periodic TTL sweep. Stop with stopJanitor.
func (r *jobRegistry) startJanitor() {
	r.janitorStop = make(chan struct{})
	r.janitorDone = make(chan struct{})
	period := r.ttl / 4
	if period <= 0 || period > time.Minute {
		period = time.Minute
	}
	go func() {
		defer close(r.janitorDone)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-r.janitorStop:
				return
			case <-t.C:
				r.mu.Lock()
				r.evictLocked()
				r.mu.Unlock()
			}
		}
	}()
}

func (r *jobRegistry) stopJanitor() {
	if r.janitorStop == nil {
		return
	}
	close(r.janitorStop)
	<-r.janitorDone
	r.janitorStop = nil
}

// jobEventRing caps the per-job event ring. Progress events beyond it age
// out oldest-first; the terminal event is always the newest, so every
// watcher still ends on it.
const jobEventRing = 256

// job is one async solve. Mutable state sits behind mu; the runner
// goroutine is the only writer of state transitions.
type job struct {
	id       string
	tenant   *tenant
	lifetime context.Context    // the job's own context; outlives the submit request
	cancel   context.CancelFunc // aborts queue wait and CDCL search

	cancelOnDisconnect bool
	callback           string // validated callback_url ("" = no webhook)
	recovered          bool   // re-admitted from the journal after a restart

	mu       sync.Mutex
	state    string
	degraded bool
	created  time.Time
	started  time.Time // slot granted
	finished time.Time
	result   *wire.ResultJSON
	errMsg   string

	seq      int64           // last event sequence number issued
	events   []wire.JobEvent // the event ring, oldest first
	wake     chan struct{}   // closed by the next publish; nil until a watcher waits
	watchers int
}

// insert registers a queued job — lifetime context, cancel, callback and
// first queued event — under id: freshly minted when empty (a submit), or a
// journaled ID restored after a restart and marked recovered. A restore
// colliding with a live entry yields the existing job (replay is
// idempotent).
func (r *jobRegistry) insert(id string, t *tenant, cancelOnDisconnect bool, callback string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	recovered := id != ""
	if !recovered {
		for {
			id = wire.NewJobID("j-")
			if _, taken := r.jobs[id]; !taken {
				break
			}
		}
	} else if existing := r.jobs[id]; existing != nil {
		return existing
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:                 id,
		tenant:             t,
		lifetime:           ctx,
		cancel:             cancel,
		cancelOnDisconnect: cancelOnDisconnect,
		callback:           callback,
		recovered:          recovered,
		state:              wire.JobQueued,
		created:            r.now(),
	}
	j.publishLocked(wire.JobEvent{State: wire.JobQueued}) // j is not shared yet
	r.jobs[j.id] = j
	r.evictLocked()
	return j
}

// retire queues a job that has just reached its terminal state for
// eviction. Eviction itself waits for the next submit, lookup or sweep.
func (r *jobRegistry) retire(j *job) {
	r.mu.Lock()
	r.retired = append(r.retired, j)
	r.mu.Unlock()
}

// evictLocked pops terminal jobs in finish order while the oldest is past
// its TTL or the registry is over capacity. Live jobs never enter the
// queue: their runner goroutine and cancellation handle must stay
// reachable.
func (r *jobRegistry) evictLocked() {
	now := r.now()
	for len(r.retired) > 0 {
		j := r.retired[0]
		if len(r.jobs) <= r.max && !r.expired(j, now) {
			return
		}
		r.retired[0] = nil
		r.retired = r.retired[1:]
		if r.jobs[j.id] == j { // get may have dropped it already
			delete(r.jobs, j.id)
		}
	}
}

// expired reports whether j is terminal and past the TTL at now.
func (r *jobRegistry) expired(j *job, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return wire.JobTerminal(j.state) && r.ttl > 0 && now.Sub(j.finished) > r.ttl
}

// get resolves a job ID, expiring on the way, so a terminal job past its
// TTL 404s even when no submission has run eviction since it expired. The
// job's own expiry is checked too: a job that finished just before the
// queue's head can sit behind it.
func (r *jobRegistry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked()
	j := r.jobs[id]
	if j != nil && r.expired(j, r.now()) {
		delete(r.jobs, id)
		return nil
	}
	return j
}

func (r *jobRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// snapshot renders the job's wire form.
func (j *job) snapshot() *wire.JobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() *wire.JobJSON {
	out := &wire.JobJSON{
		API:       wire.V1,
		ID:        j.id,
		State:     j.state,
		Tenant:    j.tenant.cfg.Name,
		Degraded:  j.degraded,
		Recovered: j.recovered,
		Result:    j.result,
		Error:     j.errMsg,
	}
	switch {
	case !j.started.IsZero():
		out.QueuedMS = j.started.Sub(j.created).Milliseconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		out.RunMS = end.Sub(j.started).Milliseconds()
	case !j.finished.IsZero(): // terminal without ever running
		out.QueuedMS = j.finished.Sub(j.created).Milliseconds()
	default:
		out.QueuedMS = time.Since(j.created).Milliseconds()
	}
	return out
}

// publishLocked appends an event to the ring and wakes every waiting
// watcher. Callers hold j.mu.
func (j *job) publishLocked(ev wire.JobEvent) {
	j.seq++
	ev.API = wire.V1
	ev.Seq = j.seq
	if len(j.events) >= jobEventRing {
		j.events = j.events[1:]
	}
	j.events = append(j.events, ev)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// publishProgress converts one solver sample into a progress event. Called
// from solver goroutines via the obs progress sink.
func (j *job) publishProgress(s obs.ProgressSample) {
	p := obs.ProgressToJSON(s)
	j.mu.Lock()
	if !wire.JobTerminal(j.state) {
		j.publishLocked(wire.JobEvent{State: j.state, Progress: &p})
	}
	j.mu.Unlock()
}

// setRunning transitions queued → running (no-op if the job was canceled
// first) and reports whether the transition happened.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wire.JobQueued {
		return false
	}
	j.state = wire.JobRunning
	j.started = time.Now()
	j.publishLocked(wire.JobEvent{State: j.state})
	return true
}

// finish moves the job to a terminal state and publishes the terminal
// event. Only the first terminal transition wins.
func (j *job) finish(state string, res *wire.ResultJSON, errMsg string, degraded bool) bool {
	j.mu.Lock()
	if wire.JobTerminal(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.degraded = degraded
	j.finished = time.Now()
	j.publishLocked(wire.JobEvent{State: state, Job: j.snapshotLocked()})
	j.mu.Unlock()
	return true
}

// eventsAfter appends to buf the events after seq after. While the job is
// live it also returns the channel the next publish closes; once the job is
// terminal that channel is nil and the batch ends on the terminal event —
// for a watcher already past it, the batch is that event alone, so every
// stream ends with a done frame.
func (j *job) eventsAfter(after int64, buf []wire.JobEvent) ([]wire.JobEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ev := range j.events {
		if ev.Seq > after {
			buf = append(buf, ev)
		}
	}
	if wire.JobTerminal(j.state) {
		if len(buf) == 0 {
			buf = append(buf, j.events[len(j.events)-1])
		}
		return buf, nil
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return buf, j.wake
}

// watch counts an /events watcher until unwatch runs. When the last
// watcher of a cancel_on_disconnect job leaves before the job finished, the
// job is canceled — the client that wanted the stream is gone.
func (j *job) watch() (unwatch func()) {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		j.watchers--
		cancelNow := j.watchers == 0 && j.cancelOnDisconnect && !wire.JobTerminal(j.state)
		j.mu.Unlock()
		if cancelNow {
			j.cancel()
		}
	}
}

// ---------------------------------------------------------------------------
// Handlers.

// handleJobSubmit answers POST /v1/jobs: authenticate, validate, make the
// admission decision now (queue position, shed, or coded rejection), then
// hand the solve to the runner goroutine and answer 202 with the snapshot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.met.jobsSubmitted.Add(1)
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		s.writeError(w, apiErrorf(http.StatusServiceUnavailable, wire.CodeDraining, "server draining"))
		return
	}
	var req wire.JobRequest
	if err := s.decode(w, r, &req); err != nil {
		s.rejectBody(w, err)
		return
	}
	if err := wire.CheckAPI(req.API); err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeUnsupportedAPI, "%v", err))
		return
	}
	if req.CallbackURL != "" {
		if err := s.validateCallback(req.CallbackURL); err != nil {
			s.met.badRequests.Add(1)
			s.writeError(w, apiErrorf(http.StatusBadRequest, wire.CodeBadRequest, "callback_url: %v", err))
			return
		}
	}
	sreq := req.SolveRequest()
	m, aerr := s.requestMatrix(sreq)
	if aerr != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, aerr)
		return
	}
	opts, timeout, err := sreq.Options.Apply(*s.cfg.Options)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	opts, timeout = s.solveBudgets(opts, timeout)

	// The admission decision happens here, synchronously and exactly: a
	// queue position (or immediate slot) is reserved before the 202 goes
	// out, so MaxQueue bounds jobs and sync solves together and a rejected
	// job never exists.
	resv, rerr := s.sched.reserve(t)
	if rerr != nil {
		if req.Degrade {
			// Graceful shed: answer with a heuristic-only result instead of
			// a 429. The job exists, runs the cheap pipeline, and completes
			// degraded.
			j := s.newJob(t, &req, m)
			go s.runShedJob(j, t, m, opts)
			writeJSON(w, http.StatusAccepted, j.snapshot())
			return
		}
		s.met.countRejection(admissionError(rerr))
		s.writeError(w, admissionError(rerr))
		return
	}
	j := s.newJob(t, &req, m)
	go s.runJob(j, t, m, opts, timeout, resv)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// newJob registers the queued job and journals the accepted submission —
// the record hits the journal before the 202 goes out, so an accepted job
// is never forgotten by a crash.
func (s *Server) newJob(t *tenant, req *wire.JobRequest, m *bitmat.Matrix) *job {
	j := s.jobs.insert("", t, req.CancelOnDisconnect, req.CallbackURL)
	s.journalSubmit(j, req, m)
	return j
}

// finishJob is the server-level terminal transition, through which every
// job's end passes: the job's own finish (first win only), its place in the
// registry's eviction queue, then the durability tail — terminal record to
// the journal, webhook delivery if the job asked for one.
func (s *Server) finishJob(j *job, state string, res *wire.ResultJSON, errMsg string, degraded bool) {
	if !j.finish(state, res, errMsg, degraded) {
		return
	}
	s.jobs.retire(j)
	snap := j.snapshot()
	s.journalTerminal(j, snap)
	if j.callback != "" && s.webhooks != nil {
		s.webhooks.enqueue(j.id, j.callback, snap)
	}
}

// runJob is the job runner: wait for the reserved slot, solve under the
// job's own context (so DELETE interrupts the CDCL search), finish.
func (s *Server) runJob(j *job, t *tenant, m *bitmat.Matrix, opts core.Options, timeout time.Duration, resv *reservation) {
	tq := time.Now()
	release, err := resv.wait(j.lifetime)
	if err != nil {
		// Canceled while queued: never ran, slot never held.
		s.met.jobsCanceled.Add(1)
		s.finishJob(j, wire.JobCanceled, nil, "", false)
		return
	}
	s.met.queueHist.Observe(time.Since(tq))
	defer release()
	if !j.setRunning() {
		return // already terminal (defensive; cancellation flows via ctx)
	}

	solveCtx := obs.WithProgressSink(j.lifetime, 0, j.publishProgress)
	if timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(solveCtx, timeout)
		defer cancel()
	}
	t0 := time.Now()
	rj, res, err := s.cachedSolve(solveCtx, m, opts)
	if err != nil {
		s.met.jobsFailed.Add(1)
		s.met.internalErrors.Add(1)
		s.finishJob(j, wire.JobFailed, nil, err.Error(), false)
		return
	}
	s.met.observeSolve(res, time.Since(t0))
	if res.Canceled && j.lifetime.Err() != nil {
		// DELETE mid-solve: the partial result (best depth so far) is kept
		// on the canceled snapshot.
		s.met.jobsCanceled.Add(1)
		s.finishJob(j, wire.JobCanceled, rj, "", false)
		return
	}
	s.met.jobsDone.Add(1)
	s.finishJob(j, wire.JobDone, rj, "", false)
}

// shedConcurrency bounds concurrent shed (heuristic-only) solves. Sheds
// bypass the solve slots — that is their point: answer when the queue
// can't — but they are not free, so a saturated server under a shed storm
// still does bounded work.
const shedConcurrency = 2

// runShedJob answers an admission-rejected, degrade-opted job with the
// heuristic-only pipeline: row packing plus rank/greedy-fooling lower
// bounds, never the SAT stage. The result is marked optimal=false unless
// the bounds happen to close the gap (or the cache already holds the
// proved answer — shedding never makes a cached instance worse).
func (s *Server) runShedJob(j *job, t *tenant, m *bitmat.Matrix, opts core.Options) {
	s.shedSem <- struct{}{}
	defer func() { <-s.shedSem }()
	if !j.setRunning() {
		return // already terminal (defensive; cancellation flows via ctx)
	}
	s.met.jobsShed.Add(1)
	s.sched.countShed(t)
	opts.SkipSAT = true
	t0 := time.Now()
	rj, res, err := s.cachedSolve(j.lifetime, m, opts)
	if err != nil {
		s.met.jobsFailed.Add(1)
		s.finishJob(j, wire.JobFailed, nil, err.Error(), true)
		return
	}
	s.met.observeSolve(res, time.Since(t0))
	if j.lifetime.Err() != nil {
		s.met.jobsCanceled.Add(1)
		s.finishJob(j, wire.JobCanceled, nil, "", true)
		return
	}
	s.met.jobsDone.Add(1)
	s.finishJob(j, wire.JobDone, rj, "", true)
}

// jobFor resolves {id} to a job visible to the requesting tenant,
// answering the error itself otherwise. Visibility is per-tenant: a job ID
// from another tenant is a 404, not a 403 — existence is not leaked.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return nil, false
	}
	j := s.jobs.get(r.PathValue("id"))
	if j == nil || j.tenant != t {
		s.writeError(w, apiErrorf(http.StatusNotFound, wire.CodeNotFound, "no such job"))
		return nil, false
	}
	return j, true
}

// handleJobGet answers GET /v1/jobs/{id} with the current snapshot.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobCancel answers DELETE /v1/jobs/{id}: cancel the job's context —
// a queued job leaves the queue, a running one interrupts its CDCL search
// via the SolveContext/SetInterrupt plumbing and frees its slot. Canceling
// a terminal job is a no-op answering the final snapshot (idempotent).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobEvents answers GET /v1/jobs/{id}/events with an SSE stream: the
// events after Last-Event-ID (0 = from the start), then live status and
// progress events, each batch in one flush, ending with the terminal
// snapshot, after which the stream closes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	rc := http.NewResponseController(w)
	s.met.jobStreams.Add(1)
	defer j.watch()()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer SSE
	w.WriteHeader(http.StatusOK)

	after, _ := strconv.ParseInt(r.Header.Get("Last-Event-ID"), 10, 64)
	var batch []wire.JobEvent
	for {
		var wake <-chan struct{}
		batch, wake = j.eventsAfter(after, batch[:0])
		for i := range batch {
			if wire.WriteEvent(w, &batch[i]) != nil {
				return
			}
		}
		if len(batch) > 0 {
			rc.Flush()
			after = batch[len(batch)-1].Seq
		}
		if wake == nil {
			return // the terminal event is written
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
