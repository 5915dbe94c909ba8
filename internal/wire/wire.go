// Package wire defines the JSON schema shared by the ebmfd service, the
// ebmfgw gateway and the ebmf CLI: request shapes (matrix + per-request
// options, job submissions) and result shapes (depth, provenance, partition,
// job status, streamed events). Keeping it in a single package means a
// client can drive the CLI, the daemon and the gateway interchangeably —
// `ebmf -json` prints exactly what `POST /v1/solve` returns.
//
// # Versioning and compatibility contract
//
// Every top-level request and response type carries an optional "api" field.
// The contract, which lets the job-oriented surface evolve without breaking
// deployed clients:
//
//   - A request may state the schema version it speaks ("api": 1). Absent or
//     zero means V1 — the pre-versioning schema is retroactively version 1.
//     Servers reject versions above their own with a structured error, code
//     "unsupported_api" (CheckAPI) — never by guessing at semantics.
//   - Responses echo the version they were produced under, so clients can
//     log and assert what they are decoding.
//   - Responses evolve additively within a version: new response fields may
//     appear at any time, and clients MUST tolerate unknown response fields
//     (Go's encoding/json default — this tolerance is what let the "api"
//     field itself ship without a flag day, and both tiers rely on it when
//     decoding each other's responses).
//   - Requests are decoded strictly at every tier (DisallowUnknownFields): a
//     typo'd option must be a 400, not a silently ignored knob. New request
//     fields therefore ship together with the server that understands them;
//     a client needing to know whether a field is understood checks the
//     server's advertised version first.
//   - A request body is exactly one JSON value: anything but whitespace
//     after it (a second value, trailing junk) is a 400 bad_request. Both
//     tiers read the whole body before decoding it, and a body over the
//     server's size cap is a 413 budget_exceeded, wherever its JSON value
//     ends.
//   - Semantic changes — repurposed fields, changed defaults, removed
//     endpoints — require bumping V. There has been no such change yet.
//   - Option values may be retired within a version when the configuration
//     they name is deleted. A retired value decodes like any unknown value:
//     a 400 bad_request at every tier, including a gateway that could answer
//     from its cache, never a silent fallback. Retired so far: the encoding
//     "log" and the portfolio strategies "log", "glue4" and "no-symbreak"
//     (none ever beat the default on the committed suites); the strategy
//     "pairwise-amo" (once the encoder pinned a fooling set, it spent
//     exactly the default's conflicts on every committed instance, DESIGN
//     §9); the strategy "native-amo" (the default configuration under a
//     second name; "amo":"native" still selects it); and strategy
//     racing (it lost on summed wall time at about 1.8× the CPU, DESIGN
//     §9), which retires "portfolio" above 1, "share_clauses": true and
//     "portfolio_strategies" lists of two or more names. The fields
//     themselves stay: "encoding" accepts "onehot", "portfolio" 0 or 1,
//     "share_clauses" false, and "portfolio_strategies" one name, which
//     runs that strategy solo.
//
// # Result fields
//
// "rank_lb" is the rational rank (Eq. 3 of the paper), summed over the
// matrix's blocks. "fooling_lb" is the size of a fooling set the solve
// found, also a lower bound on the depth, but not the largest set: the
// exact search runs only on blocks whose packed depth is above their rank,
// and a block the rank bound certifies reports its greedy set, since no
// larger set could change its depth or certificate. "certificate" names
// the strongest proof any block needed: "rank", "fooling-set" (the depth
// equals fooling_lb, which beats rank_lb) or "unsat-proof".
//
// # Error envelope
//
// Every non-2xx response body is an ErrorResponse: a human-readable message
// plus a machine-readable code from the Code* constants, so clients and
// gateways branch on the code and never parse message text. 429 responses
// additionally carry a Retry-After header.
package wire

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/rect"
)

// V1 is the current wire schema version. See the package comment for the
// compatibility contract.
const V1 = 1

// CheckAPI validates a request's claimed schema version: 0 (unversioned)
// and every version up to V1 are accepted, anything newer is an error the
// caller maps to code CodeUnsupportedAPI.
func CheckAPI(api int) error {
	if api < 0 || api > V1 {
		return fmt.Errorf("wire: unsupported api version %d (this server speaks %d)", api, V1)
	}
	return nil
}

// SolveRequest is the body of POST /v1/solve (and one element of a batch).
// Exactly one of Matrix and Rows must be set.
type SolveRequest struct {
	// API is the wire schema version the client speaks (0 = V1).
	API int `json:"api,omitempty"`
	// Matrix is the pattern in text form: rows of '0'/'1' characters
	// separated by newlines (the bitmat.Parse format).
	Matrix string `json:"matrix,omitempty"`
	// Rows is the pattern as explicit 0/1 rows.
	Rows [][]int `json:"rows,omitempty"`
	// Options tunes this request; nil means server/CLI defaults.
	Options *SolveOptions `json:"options,omitempty"`
}

// SolveOptions is the per-request subset of core.Options exposed on the
// wire. Zero values mean "use the default".
type SolveOptions struct {
	// Trials overrides the row-packing trial count.
	Trials int `json:"trials,omitempty"`
	// Encoding names the CNF compilation. "onehot", the only one, is
	// accepted so that clients which always send it keep working.
	Encoding string `json:"encoding,omitempty"`
	// AMO selects the at-most-one handling of the one-hot compilation:
	// "native" (default — the solver's built-in propagator), "pairwise" or
	// "sequential" (the encoded ablations).
	AMO string `json:"amo,omitempty"`
	// ConflictBudget bounds total SAT conflicts (<0 forces unlimited where
	// the deployment allows it; 0 keeps the default).
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	// TimeoutMS bounds solve wall-clock time in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Heuristic skips the exact SAT stage.
	Heuristic bool `json:"heuristic,omitempty"`
	// Portfolio is the retired racing size: 0 and 1 (one strategy) are
	// accepted, anything above is a bad request.
	Portfolio int `json:"portfolio,omitempty"`
	// PortfolioStrategies names the solver strategy (core.Options.Strategy)
	// as a one-element list: "canonical" or a name from core.Names(). Lists
	// of two or more names, the retired racing sets, are a bad request.
	PortfolioStrategies []string `json:"portfolio_strategies,omitempty"`
	// ShareClauses is the retired clause-sharing switch: false is
	// accepted, true is a bad request.
	ShareClauses bool `json:"share_clauses,omitempty"`
}

// ErrNoMatrix is returned when a request carries neither form of the matrix.
var ErrNoMatrix = errors.New("wire: request has neither \"matrix\" nor \"rows\"")

// ParseMatrix materializes the request's pattern matrix.
func (r *SolveRequest) ParseMatrix() (*bitmat.Matrix, error) {
	switch {
	case r.Matrix != "" && r.Rows != nil:
		return nil, errors.New("wire: request sets both \"matrix\" and \"rows\"")
	case r.Matrix != "":
		m, err := bitmat.Parse(r.Matrix)
		if err != nil {
			return nil, err
		}
		// Lines of separators alone (",") parse to zero columns; reject
		// them like zero-dimension "rows".
		if m.Cols() == 0 {
			return nil, errors.New("wire: zero-dimension \"matrix\"")
		}
		return m, nil
	case r.Rows != nil:
		if len(r.Rows) == 0 || len(r.Rows[0]) == 0 {
			return nil, errors.New("wire: zero-dimension \"rows\"")
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Rows[0]) {
				return nil, errors.New("wire: ragged \"rows\"")
			}
			for _, v := range row {
				if v != 0 && v != 1 {
					return nil, fmt.Errorf("wire: non-binary entry %d in \"rows\"", v)
				}
			}
		}
		return bitmat.FromRows(r.Rows), nil
	default:
		return nil, ErrNoMatrix
	}
}

// Validate reports the error Apply would return for these options — the
// check a tier that answers without solving (a gateway cache hit) still owes
// the request.
func (o *SolveOptions) Validate() error {
	_, _, err := o.Apply(core.Options{})
	return err
}

// Apply overlays the wire options onto a base configuration and returns the
// effective core options plus the requested timeout (0 = none requested).
func (o *SolveOptions) Apply(base core.Options) (core.Options, time.Duration, error) {
	if o == nil {
		return base, 0, nil
	}
	opts := base
	if o.Trials > 0 {
		opts.Packing.Trials = o.Trials
	}
	if o.Encoding != "" && o.Encoding != "onehot" {
		return opts, 0, fmt.Errorf("wire: unknown encoding %q", o.Encoding)
	}
	if o.AMO != "" {
		amo, err := encode.ParseAMO(o.AMO)
		if err != nil {
			return opts, 0, fmt.Errorf("wire: %w", err)
		}
		opts.AMO = amo
	}
	if o.ConflictBudget != 0 {
		opts.ConflictBudget = o.ConflictBudget
		if opts.ConflictBudget < 0 {
			opts.ConflictBudget = 0 // core convention: <=0 is unlimited
		}
	}
	opts.SkipSAT = opts.SkipSAT || o.Heuristic
	if o.Portfolio > 1 {
		return opts, 0, fmt.Errorf("wire: retired option \"portfolio\": %d (strategy racing was removed; 0 or 1 runs one strategy)", o.Portfolio)
	}
	if o.ShareClauses {
		return opts, 0, errors.New("wire: retired option \"share_clauses\": true (clause sharing was removed)")
	}
	switch len(o.PortfolioStrategies) {
	case 0:
	case 1:
		// Validate the name here so a typo is a 400, not a mid-solve error.
		if _, err := core.ByName(o.PortfolioStrategies[0]); err != nil {
			return opts, 0, err
		}
		opts.Strategy = o.PortfolioStrategies[0]
	default:
		return opts, 0, fmt.Errorf("wire: retired option \"portfolio_strategies\" with %d names (strategy racing was removed; name one strategy)", len(o.PortfolioStrategies))
	}
	var timeout time.Duration
	if o.TimeoutMS > 0 {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	return opts, timeout, nil
}

// RectJSON is one combinatorial rectangle as explicit index lists, in the
// index-list form the cache tiers share.
type RectJSON = rect.Indices

// ResultJSON is the wire form of core.Result — the body of a /v1/solve
// response and of `ebmf -json` output.
type ResultJSON struct {
	// API echoes the wire schema version the result was produced under.
	API            int    `json:"api,omitempty"`
	Depth          int    `json:"depth"`
	Optimal        bool   `json:"optimal"`
	Certificate    string `json:"certificate"`
	RankLB         int    `json:"rank_lb"`
	FoolingLB      int    `json:"fooling_lb"`
	HeuristicDepth int    `json:"heuristic_depth"`
	Blocks         int    `json:"blocks"`
	TimedOut       bool   `json:"timed_out,omitempty"`
	Canceled       bool   `json:"canceled,omitempty"`
	CacheHit       bool   `json:"cache_hit"`
	SATCalls       int    `json:"sat_calls"`
	Conflicts      int64  `json:"conflicts"`
	PackNS         int64  `json:"pack_ns"`
	SATNS          int64  `json:"sat_ns"`
	Fingerprint    string `json:"fingerprint,omitempty"`
	// Trace carries the serving tier's finished span tree back to the
	// requester. Attached only when the request arrived with a traceparent
	// header (a gateway asking for the spans to stitch into its own trace);
	// gateways strip it before caching or answering clients.
	Trace     *obs.TraceJSON `json:"trace,omitempty"`
	Partition []RectJSON     `json:"partition"`
}

// FromResult converts a solver result to its wire form. fingerprint may be
// empty (it is filled by layers that computed one).
func FromResult(res *core.Result, fingerprint string) *ResultJSON {
	rects := make([]RectJSON, 0, res.Depth)
	for _, r := range res.Partition.Rects {
		rects = append(rects, RectJSON{Rows: r.RowIndices(), Cols: r.ColIndices()})
	}
	return FromIndexed(res, fingerprint, rects)
}

// FromIndexed is FromResult for a result whose partition is already in
// index form: rects becomes the wire partition as is, and res.Partition is
// not read.
func FromIndexed(res *core.Result, fingerprint string, rects []RectJSON) *ResultJSON {
	return &ResultJSON{
		API:            V1,
		Depth:          res.Depth,
		Optimal:        res.Optimal,
		Certificate:    res.Certificate.String(),
		RankLB:         res.RankLB,
		FoolingLB:      res.FoolingLB,
		HeuristicDepth: res.HeuristicDepth,
		Blocks:         res.Blocks,
		TimedOut:       res.TimedOut,
		Canceled:       res.Canceled,
		CacheHit:       res.CacheHit,
		SATCalls:       res.SATCalls,
		Conflicts:      res.Conflicts,
		PackNS:         res.PackTime.Nanoseconds(),
		SATNS:          res.SATTime.Nanoseconds(),
		Fingerprint:    fingerprint,
		Partition:      rects,
	}
}

// Meta is the core provenance a wire result carries, without its partition:
// depth, lower bounds, optimality, certificate, interruption flags, blocks
// and heuristic depth. It is the one conversion from the wire back to
// core.Result. Solver-stage counters and the cache-hit mark describe the
// request that produced the result, not the matrix, and stay zero.
func (r *ResultJSON) Meta() core.Result {
	return core.Result{
		Depth:          r.Depth,
		RankLB:         r.RankLB,
		FoolingLB:      r.FoolingLB,
		Optimal:        r.Optimal,
		Certificate:    parseCertificate(r.Certificate),
		TimedOut:       r.TimedOut,
		Canceled:       r.Canceled,
		Blocks:         r.Blocks,
		HeuristicDepth: r.HeuristicDepth,
	}
}

// FillRequest is the body of POST /v1/fill — the cache-fill replication
// path: a gateway (or operator tooling) seeds a proved-optimal canonical
// result into a backend's cache so a failover lands warm. The receiver
// validates structure before accepting: the matrix must be its own
// canonical form, its fingerprint must match, and the partition must be a
// valid EBMF of it at the claimed depth. Optimality itself is taken on
// trust — /v1/fill is a fleet-internal endpoint, and every future hit is
// still re-validated by lifting.
type FillRequest struct {
	// API is the wire schema version the sender speaks (0 = V1).
	API int `json:"api,omitempty"`
	// Fingerprint is the canonical hash the result is keyed by.
	Fingerprint string `json:"fingerprint"`
	// Matrix is the canonical matrix in text form (bitmat.Parse format).
	Matrix string `json:"matrix"`
	// Result is the proved-optimal canonical-space result; its Partition
	// indexes Matrix.
	Result *ResultJSON `json:"result"`
}

// FillResponse answers POST /v1/fill.
type FillResponse struct {
	// API echoes the wire schema version.
	API int `json:"api,omitempty"`
	// Stored reports whether the fill added anything; false means every
	// tier already held the fingerprint (the common case when replication
	// races a hedged solve to the same shard).
	Stored bool `json:"stored"`
}

// parseCertificate inverts core.Certificate.String; unknown names map to
// CertNone.
func parseCertificate(s string) core.Certificate {
	switch s {
	case "rank":
		return core.CertRank
	case "fooling-set":
		return core.CertFooling
	case "unsat-proof":
		return core.CertUnsat
	default:
		return core.CertNone
	}
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// API is the wire schema version the client speaks (0 = V1).
	API      int            `json:"api,omitempty"`
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is one element of a batch response: either a result or an error.
type BatchItem struct {
	Result *ResultJSON `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// BatchResponse answers a batch in request order.
type BatchResponse struct {
	// API echoes the wire schema version.
	API     int         `json:"api,omitempty"`
	Results []BatchItem `json:"results"`
}

// Machine-readable error codes carried by ErrorResponse. Clients and
// gateways branch on these; the human-readable message is for logs only.
const (
	// CodeBadRequest: malformed JSON, unknown fields, or invalid options.
	CodeBadRequest = "bad_request"
	// CodeBadMatrix: the request's matrix is missing, ragged, non-binary or
	// otherwise unparseable.
	CodeBadMatrix = "bad_matrix"
	// CodeUnsupportedAPI: the request's "api" field names a schema version
	// newer than this server speaks (CheckAPI).
	CodeUnsupportedAPI = "unsupported_api"
	// CodeBudgetExceeded: the request exceeds a configured server budget —
	// matrix cells, batch length, or body bytes.
	CodeBudgetExceeded = "budget_exceeded"
	// CodeQueueFull: admission control rejected the request because the
	// global queue is saturated. Carries Retry-After.
	CodeQueueFull = "queue_full"
	// CodeQuotaExceeded: the requesting tenant is at its queued-work quota
	// while the server still has room for other tenants. Carries Retry-After.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeUnauthorized: the request presented an API key no tenant owns.
	CodeUnauthorized = "unauthorized"
	// CodeDraining: the server is shutting down and rejects new work.
	CodeDraining = "draining"
	// CodeNotFound: the named resource (a job ID) does not exist or is not
	// visible to the requesting tenant.
	CodeNotFound = "not_found"
	// CodeClientGone: the client disconnected while the request was queued
	// (nginx-style 499; seen only in logs and metrics, never by the client).
	CodeClientGone = "client_gone"
	// CodeUpstream: a gateway could not obtain an answer from any backend.
	CodeUpstream = "backend_unavailable"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// API echoes the wire schema version.
	API int `json:"api,omitempty"`
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable classification (Code* constants). Empty
	// only in responses from pre-versioning servers.
	Code string `json:"code,omitempty"`
}

// Errorf builds a coded error envelope.
func Errorf(code, format string, args ...any) ErrorResponse {
	return ErrorResponse{API: V1, Code: code, Error: fmt.Sprintf(format, args...)}
}
