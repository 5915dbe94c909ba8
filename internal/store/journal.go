package store

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The job journal: the async job surface's crash log, run on the same log
// engine as the result store. Where the result store holds facts
// (proved-optimal results, immutable forever), the journal holds intentions:
// "this submission was accepted and must reach a terminal state", "this
// terminal snapshot must be delivered to its callback URL".
//
// Per job the journal sees at most three records, appended in order:
//
//	submit    at admission, before the 202 goes out — the matrix, options
//	          and callback needed to re-admit the job after a crash
//	terminal  at completion — the final JobJSON snapshot
//	webhook   after the callback delivery succeeded (only for jobs with one)
//
// Recovery groups records by job ID: a submit with no terminal is an
// unfinished job (re-admitted by the server under the same ID), a terminal
// with an unacked callback is an undelivered webhook (delivery resumes),
// and anything fully settled is garbage the next compaction drops. The
// journal deliberately stores the client's solve payload, not the result —
// results a finished job already proved live in the result store, so a
// replayed job that was solved before the crash completes as a cache hit,
// never a re-solve.

// Journal record kinds.
const (
	JobSubmit   = "submit"
	JobTerminal = "terminal"
	JobWebhook  = "webhook"
)

// JobRecord is one journal entry. Which fields are meaningful depends on
// Kind; the payloads the server owns (options, snapshots) are carried as raw
// JSON so the store stays dependency-free.
type JobRecord struct {
	// Kind is JobSubmit, JobTerminal or JobWebhook.
	Kind string `json:"kind"`
	// ID is the job ID all three record kinds share.
	ID string `json:"id"`

	// Submit fields: everything needed to re-admit the job after a restart.
	Tenant             string          `json:"tenant,omitempty"`
	Matrix             string          `json:"matrix,omitempty"`
	Options            json.RawMessage `json:"options,omitempty"`
	Callback           string          `json:"callback,omitempty"`
	Degrade            bool            `json:"degrade,omitempty"`
	CancelOnDisconnect bool            `json:"cancel_on_disconnect,omitempty"`

	// Terminal fields: the final state and the full JobJSON snapshot (the
	// webhook delivery payload).
	State string          `json:"state,omitempty"`
	Job   json.RawMessage `json:"job,omitempty"`
}

// Journal record validation failure modes.
var (
	errNoJobID      = errors.New("store: journal record has no job ID")
	errBadKind      = errors.New("store: journal record has an unknown kind")
	errNoMatrix     = errors.New("store: submit record has no matrix")
	errNoState      = errors.New("store: terminal record has no state")
	ErrJournalClose = errors.New("store: journal closed")
)

// Validate checks a journal record's internal consistency. Like the result
// store's Record.Validate, it gates both appends and recovery: a corrupt
// frame that happens to checksum correctly still cannot smuggle in a record
// the replay logic would trip over.
func (r *JobRecord) Validate() error {
	if r.ID == "" {
		return errNoJobID
	}
	switch r.Kind {
	case JobSubmit:
		if r.Matrix == "" {
			return errNoMatrix
		}
	case JobTerminal:
		if r.State == "" {
			return errNoState
		}
	case JobWebhook:
		// The ID is the whole payload.
	default:
		return fmt.Errorf("%w: %q", errBadKind, r.Kind)
	}
	return nil
}

// journalEntry is one job's accumulated journal state.
type journalEntry struct {
	submit    *JobRecord
	terminal  *JobRecord
	delivered bool // a webhook record acked the callback
}

// settled reports whether nothing about this job needs to survive a
// compaction: it reached a terminal state and either never had a callback
// or had it delivered.
func (e *journalEntry) settled() bool {
	if e.terminal == nil {
		return false
	}
	callback := e.terminal.Callback
	if e.submit != nil && e.submit.Callback != "" {
		callback = e.submit.Callback
	}
	return callback == "" || e.delivered
}

// JournalStats is a snapshot of the journal's counters.
type JournalStats struct {
	// Pending is the number of journaled jobs with no terminal record;
	// Undelivered the number of terminal jobs whose webhook is unacked.
	Pending     int `json:"pending"`
	Undelivered int `json:"undelivered"`
	// Loaded counts records replayed on open, from the snapshot and the WAL
	// together; SkippedCorrupt and TruncatedBytes mirror the result store's
	// recovery counters.
	Loaded         int64 `json:"loaded"`
	SkippedCorrupt int64 `json:"skipped_corrupt"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Appends counts records durably appended; AppendErrors disk-layer
	// failures (the record's effect stays in memory for this process).
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"append_errors"`
	// Bytes is the snapshot's length plus the WAL's; Compactions counts
	// snapshot rotations.
	Bytes       int64 `json:"bytes"`
	Compactions int64 `json:"compactions"`
	// Flushes counts fsyncs; FlushNS their cumulative latency and
	// LastFlushNS the most recent one's.
	Flushes     int64 `json:"flushes"`
	FlushNS     int64 `json:"flush_ns"`
	LastFlushNS int64 `json:"last_flush_ns"`
}

// JournalReplay is what a restarted server learns from the journal.
type JournalReplay struct {
	// Pending are submit records with no terminal record, in journal order:
	// jobs the crash interrupted, to be re-admitted under the same ID.
	Pending []*JobRecord
	// Undelivered are terminal records whose callback was never acked, in
	// journal order: webhook deliveries to resume. Each carries the full
	// terminal snapshot in Job and the callback URL in Callback (copied from
	// the submit record when the terminal record lacks it).
	Undelivered []*JobRecord
}

// Journal file names inside its directory. jobs.log is the WAL, so a
// directory written before the journal had a snapshot replays unchanged.
const (
	journalName     = "jobs.log"
	journalSnapName = "jobs.snapshot.log"
	journalTempName = "jobs.snapshot.tmp"
)

// Journal is the durable job log. Safe for concurrent use. Create with
// OpenJournal; always Close (it performs the final flush).
type Journal struct {
	logEngine
	entries map[string]*journalEntry
	order   []string // first-seen job order, for deterministic compaction
}

// OpenJournal loads the job journal from dir (creating it if needed),
// recovers what is recoverable, compacts away settled jobs, and returns a
// journal ready for appends. Read the recovered work with Replay before
// appending new records.
func OpenJournal(dir string, opts Options) (*Journal, error) {
	j := &Journal{entries: make(map[string]*journalEntry)}
	err := j.open(dir, opts, logPolicy{
		wal: journalName, snapshot: journalSnapName, temp: journalTempName,
		errClosed: ErrJournalClose,
		decode:    decodeInto(j.applyLocked),
		live:      j.live,
	})
	if err != nil {
		return nil, err
	}
	// Boot-time compaction drops settled jobs so the journal stays
	// proportional to outstanding work, not lifetime traffic.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.walBytes > 0 {
		if err := j.compactLocked(); err != nil {
			j.opts.Logger.Printf("store: journal boot compaction failed: %v", err)
		}
	}
	return j, nil
}

// applyLocked folds one record into the entry map. Last write wins per
// field; a terminal record for a job with no submit still creates an entry
// (its webhook may need delivering even though the submit frame was lost).
func (j *Journal) applyLocked(rec *JobRecord) {
	e, ok := j.entries[rec.ID]
	if !ok {
		e = &journalEntry{}
		j.entries[rec.ID] = e
		j.order = append(j.order, rec.ID)
	}
	switch rec.Kind {
	case JobSubmit:
		e.submit = rec
	case JobTerminal:
		e.terminal = rec
	case JobWebhook:
		e.delivered = true
	}
}

// Replay reports the outstanding work recovered from disk: unfinished jobs
// to re-admit and undelivered webhooks to resume.
func (j *Journal) Replay() JournalReplay {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out JournalReplay
	for _, id := range j.order {
		e := j.entries[id]
		switch {
		case e.terminal == nil && e.submit != nil:
			out.Pending = append(out.Pending, e.submit)
		case e.terminal != nil && !e.settled():
			term := *e.terminal
			if term.Callback == "" && e.submit != nil {
				term.Callback = e.submit.Callback
			}
			out.Undelivered = append(out.Undelivered, &term)
		}
	}
	return out
}

// Append writes one record durably and folds it into the in-memory state.
// Disk failures are counted and reported but leave the record applied in
// memory — the running process keeps working; only restart durability is
// degraded (matching the result store's contract).
func (j *Journal) Append(rec *JobRecord) error {
	return j.appendRecord(rec, func() bool {
		j.applyLocked(rec)
		return true
	})
}

// live drops settled jobs from memory and writes the rest: the submit
// record of every unfinished job, plus submit and terminal of every job
// with an undelivered webhook. Dropped entries count toward neither Replay
// nor Stats, so a compaction that then fails changes nothing visible.
func (j *Journal) live(emit func(any) error) error {
	kept := j.order[:0]
	for _, id := range j.order {
		if e := j.entries[id]; e.settled() || (e.submit == nil && e.terminal == nil) {
			delete(j.entries, id)
		} else {
			kept = append(kept, id)
		}
	}
	j.order = kept
	for _, id := range j.order {
		e := j.entries[id]
		for _, rec := range [2]*JobRecord{e.submit, e.terminal} {
			if rec != nil {
				if err := emit(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Loaded:         j.stats.LoadedSnapshot + j.stats.LoadedWAL,
		SkippedCorrupt: j.stats.SkippedCorrupt,
		TruncatedBytes: j.stats.TruncatedBytes,
		Appends:        j.stats.Appends,
		AppendErrors:   j.stats.AppendErrors,
		Bytes:          j.stats.SnapshotBytes + j.walBytes,
		Compactions:    j.stats.Compactions,
		Flushes:        j.stats.Flushes,
		FlushNS:        j.stats.FlushNS,
		LastFlushNS:    j.stats.LastFlushNS,
	}
	for _, e := range j.entries {
		switch {
		case e.terminal == nil && e.submit != nil:
			st.Pending++
		case e.terminal != nil && !e.settled():
			st.Undelivered++
		}
	}
	return st
}
