package wire

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"

	"repro/internal/obs"
)

// Job lifecycle states. A job moves strictly forward:
//
//	queued → running → done | canceled | failed
//	queued → canceled                 (canceled before a slot was granted)
//	queued → done                     (degraded: shed to the heuristic path)
//
// Terminal states (done, canceled, failed) never change; a done job keeps
// its Result until it expires from the registry.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled"
	JobFailed   = "failed"
)

// JobTerminal reports whether state is one a job never leaves.
func JobTerminal(state string) bool {
	return state == JobDone || state == JobCanceled || state == JobFailed
}

// JobRequest is the body of POST /v1/jobs. The solve payload mirrors
// SolveRequest (exactly one of Matrix and Rows); the extra fields control
// job lifecycle rather than the solve itself.
type JobRequest struct {
	// API is the wire schema version the client speaks (0 = V1).
	API int `json:"api,omitempty"`
	// Matrix is the pattern in text form (bitmat.Parse format).
	Matrix string `json:"matrix,omitempty"`
	// Rows is the pattern as explicit 0/1 rows.
	Rows [][]int `json:"rows,omitempty"`
	// Options tunes the solve; nil means server defaults.
	Options *SolveOptions `json:"options,omitempty"`
	// CancelOnDisconnect cancels the job when its last /events watcher
	// disconnects before completion. Off by default: an async job normally
	// survives the submitting client so it can be polled later.
	CancelOnDisconnect bool `json:"cancel_on_disconnect,omitempty"`
	// Degrade opts the job into graceful shedding: when admission would
	// reject it (queue or tenant quota full), the server answers with a
	// heuristic-only result (optimal=false, exit-code-2 semantics) instead
	// of a 429.
	Degrade bool `json:"degrade,omitempty"`
	// CallbackURL, when set, names a webhook that receives the terminal
	// JobJSON as a POST with at-least-once delivery (retried with backoff,
	// resumed across server restarts). The URL is validated at submit
	// against the server's configured allowlist; servers with no allowlist
	// reject it.
	CallbackURL string `json:"callback_url,omitempty"`
}

// SolveRequest returns the solve-payload view of the job request, for code
// paths (validation, fingerprinting, the solve pipeline) that speak
// SolveRequest.
func (r *JobRequest) SolveRequest() *SolveRequest {
	return &SolveRequest{API: r.API, Matrix: r.Matrix, Rows: r.Rows, Options: r.Options}
}

// NewJobID mints an unguessable job ID: prefix plus 64 bits from
// crypto/rand, hex-encoded. IDs are bearer-ish (tenant visibility is
// checked, but an unauthenticated default-tenant job is reachable by anyone
// who knows the ID), so they must not be enumerable from a counter. ebmfd
// mints "j-" IDs and ebmfgw "gw-" IDs.
func NewJobID(prefix string) string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform's entropy source is gone;
		// refusing to mint guessable IDs is the safe failure.
		panic(fmt.Sprintf("wire: crypto/rand unavailable: %v", err))
	}
	return prefix + hex.EncodeToString(b[:])
}

// JobJSON is the wire form of a job: the body of POST /v1/jobs and
// GET /v1/jobs/{id} responses, and the payload of a terminal SSE event.
type JobJSON struct {
	// API echoes the wire schema version.
	API int `json:"api,omitempty"`
	// ID names the job in later GET/DELETE/events calls.
	ID string `json:"id"`
	// State is one of the Job* constants.
	State string `json:"state"`
	// Tenant is the tenant the job was accounted to.
	Tenant string `json:"tenant,omitempty"`
	// Degraded marks a job answered by the shed-to-heuristic path: Result is
	// heuristic-only (optimal=false) because the queue was saturated.
	Degraded bool `json:"degraded,omitempty"`
	// QueuedMS and RunMS are time spent waiting for a slot and solving.
	QueuedMS int64 `json:"queued_ms,omitempty"`
	RunMS    int64 `json:"run_ms,omitempty"`
	// Result is set once State is "done" (for canceled jobs that had partial
	// progress it may carry the canceled partial result).
	Result *ResultJSON `json:"result,omitempty"`
	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
	// Recovered marks a job re-admitted from the durable journal after a
	// server restart: same ID, solve re-run (or served from the result
	// store) under a fresh admission.
	Recovered bool `json:"recovered,omitempty"`
	// Rehomed marks a gateway job resubmitted to another backend after its
	// home died; the snapshot reflects the new backend's job. Sound because
	// a result is a deterministic property of the matrix.
	Rehomed bool `json:"rehomed,omitempty"`
}

// SSE event names on GET /v1/jobs/{id}/events. Every event's data line is a
// JSON-encoded JobEvent; the stream ends after the first terminal event.
const (
	// EventStatus reports a lifecycle transition (queued, running, ...).
	EventStatus = "status"
	// EventProgress reports an anytime solver sample: current best depth,
	// proven lower bound, conflicts, per-block position.
	EventProgress = "progress"
	// EventDone is terminal: the full JobJSON with result or error. Also
	// emitted for canceled and failed jobs (State distinguishes them).
	EventDone = "done"
)

// JobEvent is the data payload of one SSE event. Exactly one of the
// pointer fields is set, matching the event name.
type JobEvent struct {
	// API echoes the wire schema version.
	API int `json:"api,omitempty"`
	// Seq is the event's position in the job's stream, strictly increasing
	// from 1; it doubles as the SSE id: line so clients can resume.
	Seq int64 `json:"seq"`
	// State is the job state at the time of the event.
	State string `json:"state"`
	// Progress carries a solver sample (event: progress).
	Progress *obs.ProgressJSON `json:"progress,omitempty"`
	// Job carries the terminal snapshot (event: done).
	Job *JobJSON `json:"job,omitempty"`
}
