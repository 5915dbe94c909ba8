// Package obs is the fleet's dependency-free observability layer: lightweight
// spans with cross-process traceparent propagation, log-bucketed latency
// histograms, sampled solver progress timelines, and a ring buffer of
// finished traces behind GET /v1/debug/traces.
//
// Design constraints, in order:
//
//   - Zero hot-path cost when a request is sampled out. Every span operation
//     is a nil-receiver no-op, so instrumented code calls StartSpan/SetAttr/
//     End unconditionally and the unsampled path pays one context lookup per
//     span site — never an allocation, never a lock.
//   - One trace per request across tiers. A gateway forwards a
//     `traceparent`-style header (`00-<trace id>-<parent span id>-01`) to its
//     backend; the backend's spans come back in the wire response and are
//     grafted under the gateway's proxy span, so /v1/debug/traces on the
//     gateway shows gateway, backend, per-block and per-depth spans as one
//     tree. Span IDs are random 64-bit values, so cross-process grafting
//     needs no renumbering.
//   - Concurrency-safe recording. Blocks solve concurrently on a worker
//     pool; spans parent through the context and finished spans append to
//     the trace under a small mutex, so the tree assembles correctly
//     whatever the interleaving.
//
// The span *data* model is flat: each span records its parent ID and the tree
// is assembled at read time (Tree), which keeps recording lock-cheap and
// makes cross-tier merging an append.
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value means "trace every request" with
// default ring sizes and no slow-solve logging.
type Config struct {
	// SampleEvery traces one request in N (1 = every request, the default;
	// negative disables tracing entirely). Requests carrying a traceparent
	// header are always traced regardless — the upstream tier already made
	// the sampling decision.
	SampleEvery int
	// RingSize bounds the recent-traces ring (default 64).
	RingSize int
	// SlowRingSize bounds the slowest-traces ring (default 16).
	SlowRingSize int
	// SlowThreshold, when positive, logs every finished trace at least this
	// slow through Logger, span tree included.
	SlowThreshold time.Duration
	// Logger receives slow-trace dumps (default slog.Default when a
	// threshold is set).
	Logger *slog.Logger
	// ProgressEvery is the solver progress sampling interval in conflicts
	// (default 1024).
	ProgressEvery int64
	// MaxProgress caps progress samples retained per trace (default 512);
	// beyond it samples are dropped and counted.
	MaxProgress int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 16
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1024
	}
	if c.MaxProgress <= 0 {
		c.MaxProgress = 512
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Tracer makes sampling decisions and owns the finished-trace rings. One per
// process tier (server, gateway, CLI).
type Tracer struct {
	cfg     Config
	counter atomic.Uint64
	ring    *ring
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: newRing(cfg.RingSize, cfg.SlowRingSize)}
}

// Remote identifies the upstream span a request arrived under, parsed from a
// traceparent header. The zero value means "no upstream trace".
type Remote struct {
	TraceID  string
	ParentID uint64
}

// StartTrace begins a trace rooted at a span called name, if this request is
// sampled in (or arrives with a Remote, which forces tracing). It returns a
// derived context carrying the root span, and the root span itself — nil
// when the request was sampled out, which every downstream span operation
// tolerates. Finish the root with Span.Finish.
func (t *Tracer) StartTrace(ctx context.Context, name string, remote *Remote) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if remote == nil {
		if t.cfg.SampleEvery < 0 {
			return ctx, nil
		}
		if t.cfg.SampleEvery > 1 && t.counter.Add(1)%uint64(t.cfg.SampleEvery) != 0 {
			return ctx, nil
		}
	}
	tr := &Trace{tracer: t, start: time.Now()}
	var parent uint64
	if remote != nil && remote.TraceID != "" {
		tr.traceID = remote.TraceID
		tr.remote = true
		parent = remote.ParentID
	} else {
		tr.traceID = newTraceID()
	}
	sp := &Span{trace: tr, id: newSpanID(), parent: parent, name: name, start: tr.start, root: true}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Traces snapshots the finished-trace rings (recent newest-first, slowest
// descending) in wire form.
func (t *Tracer) Traces() TracesJSON {
	if t == nil {
		return TracesJSON{}
	}
	recent, slowest := t.ring.snapshot()
	out := TracesJSON{
		Recent:  make([]*TraceJSON, 0, len(recent)),
		Slowest: make([]*TraceJSON, 0, len(slowest)),
	}
	for _, td := range recent {
		out.Recent = append(out.Recent, td.JSON())
	}
	for _, td := range slowest {
		out.Slowest = append(out.Slowest, td.JSON())
	}
	return out
}

// Trace is one in-flight request's span collector. Spans append under mu as
// they finish; the tree is assembled only at read time.
type Trace struct {
	tracer  *Tracer
	traceID string
	remote  bool // arrived with a traceparent: upstream wants the spans back
	start   time.Time

	mu              sync.Mutex
	spans           []SpanData
	progress        []ProgressSample
	progressDropped int64
}

// Span is one timed operation within a trace. All methods are safe on a nil
// receiver (the sampled-out case). A span must be ended by the goroutine
// that started it; distinct spans of one trace may end concurrently.
type Span struct {
	trace  *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	root   bool
	ended  bool
}

// Attr is one span annotation.
type Attr struct {
	Key, Val string
}

type spanKey struct{}

// FromContext returns the current span, or nil when the request is untraced.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Active reports whether ctx carries a sampled-in trace.
func Active(ctx context.Context) bool { return FromContext(ctx) != nil }

// StartSpan opens a child of the context's current span and returns a context
// carrying it. On an untraced context it returns (ctx, nil) — zero cost
// beyond the context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{trace: parent.trace, id: newSpanID(), parent: parent.id, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SetAttr annotates the span. Call before End, from the span's goroutine.
func (sp *Span) SetAttr(key, val string) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{key, val})
}

// SetAttrInt annotates the span with an integer value.
func (sp *Span) SetAttrInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{key, strconv.FormatInt(v, 10)})
}

// End records the span into its trace. No-op on nil or double End. Ending a
// root span finalizes the whole trace (prefer Finish there, which also
// returns the finished data).
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	if sp.root {
		sp.Finish()
		return
	}
	sp.ended = true
	tr := sp.trace
	sd := SpanData{
		ID:       sp.id,
		Parent:   sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		Duration: time.Since(sp.start),
		Attrs:    sp.attrs,
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sd)
	tr.mu.Unlock()
}

// Finish ends a root span and finalizes its trace: the finished trace is
// pushed onto the tracer's rings, slow-logged when over the configured
// threshold, and returned (nil for nil/non-root/already-ended spans).
func (sp *Span) Finish() *TraceData {
	if sp == nil || !sp.root || sp.ended {
		return nil
	}
	sp.ended = true
	tr := sp.trace
	dur := time.Since(sp.start)
	root := SpanData{
		ID:       sp.id,
		Parent:   sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		Duration: dur,
		Attrs:    sp.attrs,
	}
	tr.mu.Lock()
	spans := append([]SpanData{root}, tr.spans...)
	progress := tr.progress
	dropped := tr.progressDropped
	tr.mu.Unlock()
	td := &TraceData{
		TraceID:         tr.traceID,
		Name:            sp.name,
		Start:           sp.start,
		Duration:        dur,
		Spans:           spans,
		Progress:        progress,
		ProgressDropped: dropped,
	}
	t := tr.tracer
	t.ring.add(td)
	if t.cfg.SlowThreshold > 0 && dur >= t.cfg.SlowThreshold {
		t.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow solve",
			slog.String("trace_id", td.TraceID),
			slog.String("name", td.Name),
			slog.Duration("duration", dur),
			slog.Int("spans", len(td.Spans)),
			slog.Int("progress_samples", len(td.Progress)),
			slog.String("tree", td.Render()),
		)
	}
	return td
}

// Merge grafts a downstream tier's finished spans and progress samples into
// this span's trace. The downstream root's Parent was set from the
// traceparent this tier sent, so the grafted subtree hangs off the right
// local span without renumbering. Safe on nil.
func (sp *Span) Merge(spans []SpanData, progress []ProgressSample) {
	if sp == nil || (len(spans) == 0 && len(progress) == 0) {
		return
	}
	tr := sp.trace
	tr.mu.Lock()
	tr.spans = append(tr.spans, spans...)
	tr.progress = append(tr.progress, progress...)
	tr.mu.Unlock()
}

// ProgressSample is one point of a solve's in-search timeline.
type ProgressSample struct {
	Time         time.Time
	Block        int // block index within the solve
	Bound        int // current SAP depth bound under decision
	LB           int // proven lower bound on the block's depth
	Conflicts    int64
	Restarts     int64
	Propagations int64
	Learnts      int // retained learnt clauses
}

// progressSink is a per-request consumer of solver progress samples attached
// to the context independently of tracing — the bridge that feeds live job
// event streams without requiring the request to be sampled into a trace.
type progressSink struct {
	every int64
	fn    func(ProgressSample)
}

type progressSinkKey struct{}

// WithProgressSink returns a context whose solve delivers progress samples to
// fn every `every` conflicts (<=0 means the 1024 default), in addition to any
// trace the context carries. fn is called from solver goroutines — it must be
// safe for concurrent use and must not block (drop, don't queue).
func WithProgressSink(ctx context.Context, every int64, fn func(ProgressSample)) context.Context {
	if fn == nil {
		return ctx
	}
	if every <= 0 {
		every = 1024
	}
	return context.WithValue(ctx, progressSinkKey{}, &progressSink{every: every, fn: fn})
}

func sinkFromContext(ctx context.Context) *progressSink {
	sink, _ := ctx.Value(progressSinkKey{}).(*progressSink)
	return sink
}

// AddProgress delivers a solver progress sample to the context's progress
// sink (if any) and appends it to the context's trace, bounded by the
// tracer's MaxProgress cap. No-op on contexts with neither.
func AddProgress(ctx context.Context, s ProgressSample) {
	if sink := sinkFromContext(ctx); sink != nil {
		sink.fn(s)
	}
	sp := FromContext(ctx)
	if sp == nil {
		return
	}
	tr := sp.trace
	max := 512
	if t := tr.tracer; t != nil {
		max = t.cfg.MaxProgress
	}
	tr.mu.Lock()
	if len(tr.progress) < max {
		tr.progress = append(tr.progress, s)
	} else {
		tr.progressDropped++
	}
	tr.mu.Unlock()
}

// ProgressEvery returns the progress sampling interval for the context: the
// tracer's interval when traced, the sink's when a sink is attached (the
// smaller of the two when both), or 0 when neither — callers then skip
// installing hooks entirely.
func ProgressEvery(ctx context.Context) int64 {
	var every int64
	if sink := sinkFromContext(ctx); sink != nil {
		every = sink.every
	}
	sp := FromContext(ctx)
	if sp == nil {
		return every
	}
	traced := int64(1024)
	if t := sp.trace.tracer; t != nil {
		traced = t.cfg.ProgressEvery
	}
	if every == 0 || traced < every {
		return traced
	}
	return every
}

// IsRemote reports whether the span's trace arrived with a traceparent — the
// signal that the upstream tier wants the finished spans returned in the
// response body.
func (sp *Span) IsRemote() bool { return sp != nil && sp.trace.remote }

// ---------------------------------------------------------------------------
// traceparent propagation.

// Traceparent renders the header value that hands this context's current
// span to a downstream tier ("" when untraced). Format mirrors W3C
// trace-context: version 00, 32-hex trace ID, 16-hex parent span ID,
// flags 01 (sampled — unsampled requests send no header at all).
func Traceparent(ctx context.Context) string {
	sp := FromContext(ctx)
	if sp == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", sp.trace.traceID, sp.id)
}

// ParseTraceparent parses a traceparent header; ok is false on empty or
// malformed values (the request then starts its own trace, or none).
func ParseTraceparent(h string) (Remote, bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return Remote{}, false
	}
	if !isHex(parts[1]) || parts[1] == strings.Repeat("0", 32) {
		return Remote{}, false
	}
	parent, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil || parent == 0 {
		return Remote{}, false
	}
	return Remote{TraceID: parts[1], ParentID: parent}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func newTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

func newSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}
