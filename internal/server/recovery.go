package server

import (
	"encoding/json"

	"repro/internal/bitmat"
	"repro/internal/store"
	"repro/internal/wire"
)

// Job durability: every accepted submission is journaled before its 202,
// every terminal transition before (or regardless of) anyone observing it,
// and a restarted server replays the delta — submits without terminals —
// back through the tenant scheduler under the same IDs. The journal stores
// the solve *inputs*, never results: a replayed job whose answer was
// already proved before the crash completes instantly as a hit on the
// durable result store, so recovery re-admits work but never re-proves it.
//
// Journal appends are fire-and-log: a dying disk degrades restart
// durability but must not fail live traffic (the same contract as the
// result store's write-through).

// journalSubmit records an accepted submission. Called from newJob, before
// the 202 is written.
func (s *Server) journalSubmit(j *job, req *wire.JobRequest, m *bitmat.Matrix) {
	if s.cfg.Journal == nil {
		return
	}
	rec := &store.JobRecord{
		Kind:               store.JobSubmit,
		ID:                 j.id,
		Tenant:             j.tenant.cfg.Name,
		Matrix:             m.String(), // canonical text form: always re-parseable
		Callback:           req.CallbackURL,
		Degrade:            req.Degrade,
		CancelOnDisconnect: req.CancelOnDisconnect,
	}
	if req.Options != nil {
		if raw, err := json.Marshal(req.Options); err == nil {
			rec.Options = raw
		}
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.cfg.Logger.Printf("journal: submit %s: %v", j.id, err)
	}
}

// journalTerminal records a job's terminal snapshot. Called from finishJob,
// first terminal transition only.
func (s *Server) journalTerminal(j *job, snap *wire.JobJSON) {
	if s.cfg.Journal == nil {
		return
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		s.cfg.Logger.Printf("journal: terminal %s: encode: %v", j.id, err)
		return
	}
	rec := &store.JobRecord{
		Kind:     store.JobTerminal,
		ID:       j.id,
		State:    snap.State,
		Callback: j.callback,
		Job:      raw,
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.cfg.Logger.Printf("journal: terminal %s: %v", j.id, err)
	}
}

// journalWebhookAck records a successful callback delivery. Written only
// after a 2xx — deliver-then-ack is what makes the webhook at-least-once.
func (s *Server) journalWebhookAck(id string) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(&store.JobRecord{Kind: store.JobWebhook, ID: id}); err != nil {
		s.cfg.Logger.Printf("journal: webhook ack %s: %v", id, err)
	}
}

// replayJournal runs at New: resume undelivered webhooks, then re-admit
// every journaled job that never reached a terminal state — same ID, fresh
// admission through the tenant scheduler, Recovered flag set on the
// snapshot so clients can tell the job was re-run.
func (s *Server) replayJournal() {
	rep := s.cfg.Journal.Replay()
	for _, rec := range rep.Undelivered {
		s.webhooks.enqueueRaw(rec.ID, rec.Callback, rec.Job)
	}
	for _, rec := range rep.Pending {
		s.replayJob(rec)
	}
	if n := len(rep.Pending); n > 0 || len(rep.Undelivered) > 0 {
		s.cfg.Logger.Printf("journal: re-admitted %d jobs, resumed %d webhook deliveries",
			n, len(rep.Undelivered))
	}
}

// replayJob re-admits one journaled submission.
func (s *Server) replayJob(rec *store.JobRecord) {
	t := s.sched.tenantByName(rec.Tenant)
	j := s.jobs.insert(rec.ID, t, false, rec.Callback)
	s.met.jobsRecovered.Add(1)

	// A cancel_on_disconnect job's watcher died with the old process; its
	// contract says it must not outlive that stream, so it resumes directly
	// into the canceled state (journaled + webhook like any terminal).
	if rec.CancelOnDisconnect {
		s.met.jobsCanceled.Add(1)
		s.finishJob(j, wire.JobCanceled, nil, "", false)
		return
	}
	m, err := bitmat.Parse(rec.Matrix)
	if err != nil {
		s.met.jobsFailed.Add(1)
		s.finishJob(j, wire.JobFailed, nil, "journal replay: "+err.Error(), false)
		return
	}
	var wopts *wire.SolveOptions
	if len(rec.Options) > 0 {
		wopts = new(wire.SolveOptions)
		if err := json.Unmarshal(rec.Options, wopts); err != nil {
			wopts = nil // solve with server defaults rather than fail the job
		}
	}
	opts, timeout, err := wopts.Apply(*s.cfg.Options)
	if err != nil {
		s.met.jobsFailed.Add(1)
		s.finishJob(j, wire.JobFailed, nil, "journal replay: "+err.Error(), false)
		return
	}
	opts, timeout = s.solveBudgets(opts, timeout)

	resv, rerr := s.sched.reserve(t)
	if rerr != nil {
		if rec.Degrade {
			go s.runShedJob(j, t, m, opts)
			return
		}
		s.met.countRejection(admissionError(rerr))
		s.met.jobsFailed.Add(1)
		s.finishJob(j, wire.JobFailed, nil, "not re-admitted after restart: "+rerr.Error(), false)
		return
	}
	go s.runJob(j, t, m, opts, timeout, resv)
}
