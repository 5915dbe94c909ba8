package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitmat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/fooling"
	"repro/internal/obs"
	"repro/internal/rowpack"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/solvecache"
	"repro/internal/store"
	"repro/internal/wire"
)

// The traced run replays a prefix of the timed op sequence in-process,
// through each layer's public functions, with one span per call. Solver
// layers are replayed on the canonical matrices the daemon solved for each
// cold op. Hit ops never reach them, so their solver rows read 0.
const (
	traceHitOps   = 3000
	traceColdOps  = 300
	traceFileName = "spans.jsonl"
)

var perLayer = []metricDef{
	{"server.handler_us", "us", "lower"},
	{"server.handler_allocs", "count", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.mallocs_per_op", "count", "lower"},
	{"server.alloc_kb_per_op", "KB", "lower"},
	{"server.gc_per_kop", "count", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.job_accept_us", "us", "lower"},
	{"server.job_overhead_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"obs.trace_us", "us", "lower"},
	{"obs.trace_allocs", "count", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.parse_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.allocs", "count", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"bitmat.fingerprint_us", "us", "lower"},
	{"bitmat.fingerprint_allocs", "count", "lower"},
	{"bitmat.compress_us", "us", "lower"},
	{"bitmat.decompose_us", "us", "lower"},
	{"bitmat.refine_us", "us", "lower"},
	{"bitmat.rank_us", "us", "lower"},
	{"bitmat.inexact", "count", "lower"},
	{"solvecache.hit_us", "us", "lower"},
	{"solvecache.hit_self_us", "us", "lower"},
	{"solvecache.lift_us", "us", "lower"},
	{"solvecache.hit_ratio", "ratio", "higher"},
	{"solvecache.lift_failures", "count", "lower"},
	{"cluster.handler_local_us", "us", "lower"},
	{"cluster.handler_proxy_us", "us", "lower"},
	{"cluster.local_hit_ratio", "ratio", "higher"},
	{"cluster.mallocs_per_op", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.fill_dup_ratio", "ratio", "lower"},
	{"core.solve_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.blocks", "count", "higher"},
	{"rowpack.pack_ms", "ms", "lower"},
	{"rowpack.optimal_ratio", "ratio", "higher"},
	{"fooling.exact_ms", "ms", "lower"},
	{"fooling.decides_ratio", "ratio", "higher"},
	{"encode.build_ms", "ms", "lower"},
	{"encode.vars", "count", "lower"},
	{"encode.clauses", "count", "lower"},
	{"sat.solve_ms", "ms", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.conflicts_per_s", "1/s", "higher"},
	{"sat.probes", "count", "lower"},
	{"sat.budget_exhausted", "count", "lower"},
	{"sat.proof_conflict_ratio", "ratio", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.journal_append_us", "us", "lower"},
	{"store.journal_append_p99_us", "us", "lower"},
	{"store.fsync_ms", "ms", "lower"},
	{"store.appends", "count", "lower"},
	{"store.journal_appends", "count", "lower"},
	{"store.append_errors", "count", "lower"},
}

// replayPlan is what the traced run replays: the timed op sequence and the
// set-up state it ran against.
type replayPlan struct {
	cold     []pattern
	coldRefs []*core.Result
	coldDone [][]byte // the daemon's done frame per cold op
	base     *hitState
	hits     []hitOp
}

type traceOut struct {
	metrics    map[string]float64
	notes      []string
	mismatches []string
}

// span is one recorded call. Spans of one op share Op; Parent is the op's
// root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"`
}

// recorder wraps calls in spans. With on false it only runs them: that pass
// is the untraced replay the tracing overhead is measured against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	ms    runtime.MemStats
	op    int
	root  int
	start time.Time
}

func (r *recorder) begin(op int) {
	r.op = op
	if !r.on {
		return
	}
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Name: "op"})
	r.root = len(r.spans) - 1
	r.start = time.Now()
}

func (r *recorder) end() {
	if r.on {
		s := &r.spans[r.root]
		s.Start, s.End = r.start.Sub(r.t0).Nanoseconds(), time.Since(r.t0).Nanoseconds()
	}
}

// call runs fn as a span, with runtime.MemStats malloc deltas read outside
// the timed interval. It returns the span's duration and allocations.
func (r *recorder) call(name string, fn func()) (time.Duration, int64) {
	if !r.on {
		fn()
		return 0, 0
	}
	runtime.ReadMemStats(&r.ms)
	a0 := r.ms.Mallocs
	s := time.Now()
	fn()
	e := time.Now()
	runtime.ReadMemStats(&r.ms)
	allocs := int64(r.ms.Mallocs - a0)
	r.spans = append(r.spans, span{Op: r.op, ID: len(r.spans) + 1, Parent: r.spans[r.root].ID, Name: name,
		Start: s.Sub(r.t0).Nanoseconds(), End: e.Sub(r.t0).Nanoseconds(), Allocs: allocs})
	return e.Sub(s), allocs
}

// samples collects per-layer observations during the traced pass.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) med(name string) float64 {
	v := append([]float64(nil), s[name]...)
	sort.Float64s(v)
	return quantile(v, 0.5)
}

func (s samples) p99(name string) float64 {
	v := append([]float64(nil), s[name]...)
	sort.Float64s(v)
	return quantile(v, 0.99)
}

func (s samples) sum(name string) float64 {
	t := 0.0
	for _, x := range s[name] {
		t += x
	}
	return t
}

func (s samples) mean(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return s.sum(name) / float64(len(s[name]))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayer holds the in-process layers one replay pass drives.
type replayer struct {
	rec      *recorder
	s        samples
	opts     core.Options
	mismatch []string
	base     *baseProofs    // the hit workloads' set-up proofs
	on, off  *server.Server // in-process servers: default tracing, tracing off
	st       *store.Store
	jr       *store.Journal
	closers  []func()
}

func (rp *replayer) close() {
	for i := len(rp.closers) - 1; i >= 0; i-- {
		rp.closers[i]()
	}
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func newTracer(sample int) *obs.Tracer {
	return obs.New(obs.Config{SampleEvery: sample, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// newServer builds an in-process server with ebmfd's default flags.
func newServer(sample int, st *store.Store, jr *store.Journal) *server.Server {
	opts := core.DefaultOptions()
	opts.ConflictBudget = server.DefaultConflictBudget
	return server.New(server.Config{Options: &opts, Logger: quietLogger(), Tracer: newTracer(sample), Store: st, Journal: jr})
}

// traceReplay runs the untraced and the traced replay passes, writes the
// spans, and derives the per-layer metrics.
func traceReplay(name string, e *env, out *runOut) (*traceOut, error) {
	plan := out.replay
	tr := &traceOut{metrics: map[string]float64{}}
	var base *baseProofs
	if plan.base != nil {
		base = proveBaseInProcess(plan.base, daemonOptions())
		tr.mismatches = append(tr.mismatches, base.mismatch...)
		tr.notes = append(tr.notes, fmt.Sprintf("set-up proofs: %d of %d proved base patterns re-solved in-process (untraced) with exactly the daemon's depth and conflicts",
			base.matched, len(plan.base.proved)))
	}
	var walls [2]time.Duration
	var traced *replayer
	for pass := 0; pass < 2; pass++ {
		rp := &replayer{rec: &recorder{on: pass == 1, t0: time.Now()}, s: samples{}, opts: daemonOptions(), base: base}
		dir := filepath.Join(e.work, fmt.Sprintf("replay%d", pass))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		err := rp.run(name, plan, dir)
		walls[pass] = time.Since(t0)
		rp.close()
		if err != nil {
			return nil, err
		}
		if pass == 1 {
			traced = rp
		}
	}
	if err := writeSpans(filepath.Join(e.work, traceFileName), traced.rec.spans); err != nil {
		return nil, err
	}
	tr.mismatches = append(tr.mismatches, traced.mismatch...)
	tr.notes = append(tr.notes,
		fmt.Sprintf("replayed %s in-process: %d spans written to %s", name, len(traced.rec.spans), filepath.Join(e.work, traceFileName)),
		fmt.Sprintf("overhead: traced replay %.3fs vs untraced %.3fs (%+.1f%%; span times exclude the MemStats reads)",
			walls[1].Seconds(), walls[0].Seconds(), 100*(walls[1].Seconds()/walls[0].Seconds()-1)))
	if n := len(traced.s["conflict_match"]); n > 0 {
		tr.notes = append(tr.notes, fmt.Sprintf("conflict match: %d of %d replayed ops spent exactly the daemon-reported conflicts",
			int(traced.s.sum("conflict_match")), n))
	}
	traced.derive(tr.metrics, out, name)
	return tr, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (rp *replayer) run(name string, plan *replayPlan, dir string) error {
	if name == "cold_jobs" {
		return rp.runCold(plan, dir)
	}
	return rp.runGateway(plan)
}

// ---- solver layers ----

// solve replays one canonical matrix: core.SolveContext as the daemon's
// cache leader runs it (sequential blocks, so stage times add up), then
// each block's stages through their own packages.
func (rp *replayer) solve(canon *bitmat.Matrix) *core.Result {
	r := rp.rec
	opts := rp.opts
	opts.Parallelism = 1
	var res *core.Result
	var err error
	dSolve, _ := r.call("core.solve", func() { res, err = core.SolveContext(context.Background(), canon, opts) })
	if err != nil {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay solve: %v", err))
		return nil
	}
	comp := bitmat.Compress(canon)
	var blocks []bitmat.Block
	if comp.Reduced.Ones() > 0 {
		blocks = bitmat.Decompose(comp.Reduced).Blocks
	}
	budgets := apportion(opts.ConflictBudget, blocks)
	var stages time.Duration
	var conflicts int64
	for bi, b := range blocks {
		d, c := rp.solveBlock(b.M, budgets[bi])
		stages += d
		conflicts += c
	}
	rp.s.add("core.solve_ms", ms(dSolve))
	rp.s.add("core.self_ms", ms(dSolve-stages))
	rp.s.add("core.blocks", float64(len(blocks)))
	if conflicts != res.Conflicts {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("stage replay spent %d conflicts, core.SolveContext %d", conflicts, res.Conflicts))
	}
	return res
}

// apportion mirrors core's per-block conflict budget split (proportional to
// 1-entries, at least one each, remainder to the largest block).
func apportion(total int64, blocks []bitmat.Block) []int64 {
	out := make([]int64, len(blocks))
	if total <= 0 || len(blocks) <= 1 {
		if total > 0 && len(blocks) == 1 {
			out[0] = total
		}
		return out
	}
	var sum, used int64
	maxI := 0
	for i, b := range blocks {
		sum += int64(b.M.Ones())
		if b.M.Ones() > blocks[maxI].M.Ones() {
			maxI = i
		}
	}
	for i, b := range blocks {
		out[i] = max(1, total*int64(b.M.Ones())/sum)
		used += out[i]
	}
	if rem := total - used; rem > 0 {
		out[maxI] += rem
	}
	return out
}

// solveBlock replays Algorithm 1 on one block: pack, rank and fooling
// bounds, then the SAT narrowing loop under the block's conflict budget.
func (rp *replayer) solveBlock(m *bitmat.Matrix, budget int64) (time.Duration, int64) {
	if m.Ones() == 0 {
		return 0, 0
	}
	r, s, opts := rp.rec, rp.s, rp.opts
	var total time.Duration
	var p0 int
	d, _ := r.call("rowpack.pack", func() { p0 = rowpack.Pack(m, opts.Packing).Depth() })
	total += d
	s.add("rowpack.pack_ms", ms(d))
	var rank, fool int
	d, _ = r.call("bitmat.rank", func() { rank = m.Rank() })
	total += d
	s.add("bitmat.rank_us", us(d))
	if opts.FoolingBudget > 0 {
		d, _ = r.call("fooling.exact", func() { fs, _ := fooling.Exact(m, opts.FoolingBudget); fool = len(fs) })
		total += d
		s.add("fooling.exact_ms", ms(d))
	}
	lb := max(rank, fool)
	s.add("blocks", 1)
	depth := p0
	// finish counts the block's outcome: whether packing already had the
	// final depth, and whether a fooling bound above rank closed it.
	finish := func(byBound bool) {
		if depth == p0 {
			s.add("rowpack.at_final", 1)
		}
		if byBound && fool > rank {
			s.add("fooling.decides", 1)
		}
	}
	if p0 <= lb {
		finish(true)
		return total, 0
	}
	if opts.MaxSATEntries > 0 && m.Ones() > opts.MaxSATEntries {
		finish(false)
		return total, 0
	}
	var enc *encode.OneHot
	d, _ = r.call("encode.build", func() {
		enc = encode.NewOneHotConfig(m, p0-1, encode.OneHotConfig{AMO: opts.AMO, Incremental: !opts.DisableIncremental})
		sv := enc.Solver()
		sv.PhaseSaving = !opts.DisablePhaseSaving
		sv.Inprocess = !opts.DisableInprocessing
	})
	total += d
	s.add("encode.build_ms", ms(d))
	sv := enc.Solver()
	s.add("encode.vars", float64(sv.NumVars()))
	s.add("encode.clauses", float64(sv.NumClauses()))
	var conflicts int64
	var satTime time.Duration
	remaining := budget
	unsat, exhausted := false, false
	for enc.Bound() >= lb {
		if budget > 0 && remaining <= 0 {
			exhausted = true
			break
		}
		status, spent := sat.Unknown, int64(0)
		d, _ = r.call("sat.solve", func() { status, spent = probe(sv, enc, remaining) })
		satTime += d
		s.add("sat.probes", 1)
		conflicts += spent
		if remaining > 0 {
			remaining -= spent
			if remaining <= 0 && status == sat.Unknown {
				exhausted = true
				break
			}
		}
		if status != sat.Sat {
			unsat, exhausted = status == sat.Unsat, status == sat.Unknown
			break
		}
		p, err := enc.ReadPartition()
		if err != nil {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay model readout: %v", err))
			break
		}
		depth = p.Depth()
		enc.Narrow()
	}
	byBound := !unsat && !exhausted && depth <= lb
	total += satTime
	s.add("sat.block_ms", ms(satTime))
	s.add("sat.block_conflicts", float64(conflicts))
	if unsat || byBound {
		s.add("sat.proof_conflicts", float64(conflicts))
	}
	if exhausted {
		s.add("sat.budget_exhausted", 1)
	}
	finish(byBound)
	return total, conflicts
}

// probe is core's solveWithBudgets for one bound: conflict chunks of 20 000
// under the remaining budget (0 = unlimited).
func probe(sv *sat.Solver, enc encode.Encoder, remaining int64) (sat.Status, int64) {
	const chunk = int64(20_000)
	var spent int64
	for {
		b := chunk
		if remaining > 0 && remaining-spent < b {
			if b = remaining - spent; b <= 0 {
				return sat.Unknown, spent
			}
		}
		sv.SetConflictBudget(b)
		before := sv.Conflicts
		status := enc.Solve()
		spent += sv.Conflicts - before
		if status != sat.Unknown {
			sv.SetConflictBudget(-1)
			return status, spent
		}
		if remaining > 0 && spent >= remaining {
			return sat.Unknown, spent
		}
	}
}

// ---- request path ----

// requestPath replays the warm path's layers on one request body: decode,
// parse, fingerprint and its stages, and (given the canonical result) lift
// and encode.
func (rp *replayer) requestPath(body []byte, canon *core.Result) (*bitmat.Matrix, *bitmat.Fingerprint) {
	r, s := rp.rec, rp.s
	var req wire.SolveRequest
	var err error
	dDec, aDec := r.call("wire.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	var m *bitmat.Matrix
	dParse, aParse := r.call("wire.parse", func() { m, err = req.ParseMatrix() })
	if err != nil {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay parse: %v", err))
		return nil, nil
	}
	var fp *bitmat.Fingerprint
	dFP, aFP := r.call("bitmat.fingerprint", func() { fp = bitmat.ComputeFingerprint(m) })
	var comp *bitmat.Compression
	dComp, _ := r.call("bitmat.compress", func() { comp = bitmat.Compress(m) })
	dDecomp, _ := r.call("bitmat.decompose", func() { bitmat.Decompose(comp.Reduced) })
	s.add("wire.decode_us", us(dDec))
	s.add("wire.parse_us", us(dParse))
	s.add("bitmat.fingerprint_us", us(dFP))
	s.add("bitmat.fingerprint_allocs", float64(aFP))
	s.add("bitmat.compress_us", us(dComp))
	s.add("bitmat.decompose_us", us(dDecomp))
	s.add("bitmat.refine_us", us(dFP-dComp-dDecomp))
	wireAllocs := aDec + aParse
	if canon != nil && fp.Exact {
		rects := make([]solvecache.RectIndices, 0, len(canon.Partition.Rects))
		for _, rc := range canon.Partition.Rects {
			rects = append(rects, solvecache.RectIndices{Rows: rc.RowIndices(), Cols: rc.ColIndices()})
		}
		var lifted *core.Result
		dLift, _ := r.call("solvecache.lift", func() {
			p, lerr := solvecache.LiftCanonical(fp, m, rects)
			if err = lerr; lerr == nil {
				res := *canon
				res.Partition, res.Depth = p, p.Depth()
				lifted = &res
			}
		})
		if err != nil {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay lift: %v", err))
		} else {
			s.add("solvecache.lift_us", us(dLift))
			dEnc, aEnc := r.call("wire.encode", func() { _, err = json.Marshal(wire.FromResult(lifted, fp.Hash)) })
			s.add("wire.encode_us", us(dEnc))
			wireAllocs += aEnc
		}
	}
	s.add("wire.allocs", float64(wireAllocs))
	return m, fp
}

// serve runs one in-process request through h and returns the recorder
// (status and body). The handler is the span.
func (rp *replayer) serve(name string, h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration, int64) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	d, a := rp.rec.call(name, func() { h.ServeHTTP(w, req) })
	return w, d, a
}

// handlerPair replays one request through the default-tracing server (a
// span named name) and the tracing-off server; their difference is obs's
// cost. Samples go to name+"_us", name+"_allocs" and the same with "_off".
func (rp *replayer) handlerPair(name, method, path string, body []byte, want int) (on, off *httptest.ResponseRecorder) {
	w, d, a := rp.serve(name, rp.on.Handler(), method, path, body)
	wOff, dOff, aOff := rp.serve(name+"_untraced", rp.off.Handler(), method, path, body)
	if w.Code != want || wOff.Code != want {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay %s %s: status %d/%d, want %d", method, path, w.Code, wOff.Code, want))
	}
	rp.s.add(name+"_us", us(d))
	rp.s.add(name+"_allocs", float64(a))
	rp.s.add(name+"_off_us", us(dOff))
	rp.s.add(name+"_off_allocs", float64(aOff))
	return w, wOff
}

// ---- workloads ----

func (rp *replayer) runCold(plan *replayPlan, dir string) error {
	var err error
	if rp.st, err = store.Open(filepath.Join(dir, "store"), store.Options{Sync: store.SyncInterval, Logger: quietLogger()}); err != nil {
		return err
	}
	rp.closers = append(rp.closers, func() { rp.st.Close() })
	if rp.jr, err = store.OpenJournal(filepath.Join(dir, "journal"), store.Options{Sync: store.SyncInterval, Logger: quietLogger()}); err != nil {
		return err
	}
	rp.closers = append(rp.closers, func() { rp.jr.Close() })
	// The in-process servers get their own store and journal, like the
	// daemon: the job accept path journals the submission before its 202.
	var sts [2]*store.Store
	var jrs [2]*store.Journal
	for i := range sts {
		if sts[i], err = store.Open(filepath.Join(dir, fmt.Sprintf("srvstore%d", i)), store.Options{Logger: quietLogger()}); err != nil {
			return err
		}
		st := sts[i]
		rp.closers = append(rp.closers, func() { st.Close() })
		if jrs[i], err = store.OpenJournal(filepath.Join(dir, fmt.Sprintf("srvjournal%d", i)), store.Options{Logger: quietLogger()}); err != nil {
			return err
		}
		jr := jrs[i]
		rp.closers = append(rp.closers, func() { jr.Close() })
	}
	rp.on, rp.off = newServer(1, sts[0], jrs[0]), newServer(-1, sts[1], jrs[1])
	rp.closers = append(rp.closers, rp.on.Close, rp.off.Close)

	n := min(traceColdOps, len(plan.cold))
	for i := 0; i < n; i++ {
		p := plan.cold[i]
		body := jobBody(p.m)
		rp.rec.begin(i)
		// The job's accept path on the in-process servers; the job then
		// solves in the background, and the replay waits for it outside
		// any span so the next op's timings see an idle process.
		w, wOff := rp.handlerPair("server.job_accept", http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
		waitJob(rp.on, w.Body.Bytes())
		waitJob(rp.off, wOff.Body.Bytes())
		// The accepted job solves concurrently with its accept handler, so
		// the handler and tracing costs come from a synchronous resubmission
		// of the now-proved pattern: the hit path every workload shares.
		rp.handlerPair("server.handler", http.MethodPost, "/v1/solve", solveBody(p.m), http.StatusOK)
		fp := bitmat.ComputeFingerprint(p.m)
		res := rp.solve(fp.Canonical)
		if res == nil {
			rp.rec.end()
			continue
		}
		match := res.Conflicts == plan.coldRefs[i].Conflicts
		if ev := decodeDone(plan.coldDone[i]); ev != nil && ev.Conflicts != res.Conflicts {
			match = false
		}
		rp.s.add("conflict_match", b2f(match))
		if !match {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("cold op %d: replay spent %d conflicts, daemon %d", i, res.Conflicts, plan.coldRefs[i].Conflicts))
		}
		rp.requestPath(solveBody(p.m), res)
		if res.Optimal && !res.TimedOut {
			rec := storeRecord(fp.Hash, res)
			var perr error
			d, _ := rp.rec.call("store.put", func() { perr = rp.st.Put(rec) })
			if perr != nil {
				rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay store put: %v", perr))
			}
			rp.s.add("store.put_us", us(d))
		}
		id := fmt.Sprintf("replay-%d", i)
		for _, jrec := range []*store.JobRecord{
			{Kind: store.JobSubmit, ID: id, Tenant: "default", Matrix: p.m.String(), Options: json.RawMessage(`{"conflict_budget":` + fmt.Sprint(conflictBudget) + `}`)},
			{Kind: store.JobTerminal, ID: id, State: "done", Job: doneJob(plan.coldDone[i])},
		} {
			var aerr error
			d, _ := rp.rec.call("store.journal_append", func() { aerr = rp.jr.Append(jrec) })
			if aerr != nil {
				rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay journal append: %v", aerr))
			}
			rp.s.add("store.journal_append_us", us(d))
		}
		rp.rec.end()
	}
	return nil
}

// waitJob polls the job named in a 202 body until it is terminal.
func waitJob(srv *server.Server, accepted []byte) {
	var j wire.JobJSON
	if json.Unmarshal(accepted, &j) != nil || j.ID == "" {
		return
	}
	for {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID, nil))
		if json.Unmarshal(w.Body.Bytes(), &j) != nil || w.Code != http.StatusOK {
			return
		}
		switch j.State {
		case "done", "failed", "canceled":
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func decodeDone(b []byte) *wire.ResultJSON {
	var ev wire.JobEvent
	if json.Unmarshal(b, &ev) != nil || ev.Job == nil {
		return nil
	}
	return ev.Job.Result
}

func doneJob(b []byte) json.RawMessage {
	var ev struct {
		Job json.RawMessage `json:"job"`
	}
	if json.Unmarshal(b, &ev) != nil || len(ev.Job) == 0 {
		return json.RawMessage(`{}`)
	}
	return ev.Job
}

// storeRecord is the durable record the daemon writes for a proved result.
func storeRecord(hash string, res *core.Result) *store.Record {
	rects := make([]store.RectRecord, 0, len(res.Partition.Rects))
	for _, r := range res.Partition.Rects {
		rects = append(rects, store.RectRecord{Rows: r.RowIndices(), Cols: r.ColIndices()})
	}
	return &store.Record{Hash: hash, Rows: res.Partition.M.Rows(), Cols: res.Partition.M.Cols(), Depth: res.Depth,
		Certificate: int(res.Certificate), RankLB: res.RankLB, FoolingLB: res.FoolingLB, Blocks: res.Blocks,
		HeuristicDepth: res.HeuristicDepth, Rects: rects}
}

// baseProofs are a hit workload's set-up proofs redone in-process: the
// canonical-space results the in-process caches are seeded with.
type baseProofs struct {
	canon    map[int]*core.Result    // base index → canonical-space result
	byHash   map[string]*core.Result // canonical hash → the same
	matched  int                     // proofs with the daemon's depth and conflicts
	mismatch []string
}

// proveBaseInProcess solves every proved base pattern's canonical form, as
// the daemon's cache leader did at set-up, and checks depth and conflicts
// against the daemon's answers. It records no spans: the timed hit ops never
// reach the solver.
func proveBaseInProcess(st *hitState, opts core.Options) *baseProofs {
	bp := &baseProofs{canon: map[int]*core.Result{}, byHash: map[string]*core.Result{}}
	for _, b := range st.proved {
		fp := bitmat.ComputeFingerprint(st.base[b].m)
		res, _ := core.Solve(fp.Canonical, opts)
		if res == nil || !res.Optimal || res.TimedOut {
			bp.mismatch = append(bp.mismatch, fmt.Sprintf("base pattern %d: replay did not prove what the daemon proved", b))
			continue
		}
		if res.Depth != st.depth[b] || res.Conflicts != st.conflicts[b] {
			bp.mismatch = append(bp.mismatch, fmt.Sprintf("base pattern %d: replay depth/conflicts %d/%d, daemon %d/%d",
				b, res.Depth, res.Conflicts, st.depth[b], st.conflicts[b]))
		} else {
			bp.matched++
		}
		bp.canon[b] = res
		bp.byHash[fp.Hash] = res
	}
	return bp
}

// seeded returns a fresh cache holding every base proof.
func (rp *replayer) seeded() *solvecache.Cache {
	cache := solvecache.New(len(rp.base.byHash) + 1)
	for hash, res := range rp.base.byHash {
		cache.Seed(hash, res)
	}
	return cache
}

// hitServers builds the default-tracing and tracing-off servers with the
// base proofs in their caches.
func (rp *replayer) hitServers() {
	rp.on, rp.off = newServer(1, nil, nil), newServer(-1, nil, nil)
	rp.closers = append(rp.closers, rp.on.Close, rp.off.Close)
	for hash, res := range rp.base.byHash {
		rp.on.Cache().Seed(hash, res)
		rp.off.Cache().Seed(hash, res)
	}
}

// hitPath replays the request path of one hit plus the cache lookup.
func (rp *replayer) hitPath(cache *solvecache.Cache, op hitOp, canon *core.Result) {
	m, _ := rp.requestPath(op.body, canon)
	if m == nil {
		return
	}
	var res *core.Result
	var err error
	d, _ := rp.rec.call("solvecache.hit", func() { res, _, err = cache.SolveContextKeyed(context.Background(), m, rp.opts) })
	if err != nil || !res.CacheHit {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay hit: err=%v, cache_hit=%v", err, res != nil && res.CacheHit))
		return
	}
	rp.s.add("solvecache.hit_us", us(d))
	fps := rp.s["bitmat.fingerprint_us"]
	rp.s.add("solvecache.hit_self_us", us(d)-fps[len(fps)-1])
}

func (rp *replayer) runGateway(plan *replayPlan) error {
	rp.hitServers()
	cache, canon := rp.seeded(), rp.base.canon
	var urls []string
	for i := 0; i < 2; i++ {
		b := newServer(1, nil, nil)
		hs := httptest.NewServer(b.Handler())
		rp.closers = append(rp.closers, b.Close, hs.Close)
		for hash, res := range rp.base.byHash {
			b.Cache().Seed(hash, res)
		}
		urls = append(urls, hs.URL)
	}
	gw, err := cluster.New(cluster.Config{Backends: urls, Logger: quietLogger(), Tracer: newTracer(1)})
	if err != nil {
		return err
	}
	rp.closers = append(rp.closers, gw.Close)
	// Warm the gateway's local LRU the way set-up did: every proved base
	// pattern once, in order.
	for _, b := range plan.base.proved {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(solveBody(plan.base.base[b].m)))
		gw.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
	n := min(traceHitOps, len(plan.hits))
	for i := 0; i < n; i++ {
		op := plan.hits[i]
		rp.rec.begin(i)
		before := gw.MetricsSnapshot().Cache.Local.Hits
		w, d, _ := rp.serve("cluster.handler", gw.Handler(), http.MethodPost, "/v1/solve", op.body)
		if w.Code != http.StatusOK {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("replay gateway op %d: status %d", i, w.Code))
		}
		if gw.MetricsSnapshot().Cache.Local.Hits > before {
			rp.s.add("cluster.handler_local_us", us(d))
		} else {
			rp.s.add("cluster.handler_proxy_us", us(d))
		}
		rp.s.add("front_us", us(d))
		// What a backend sees on a proxied hit: the canonical body.
		fp := bitmat.ComputeFingerprint(op.m)
		rp.handlerPair("server.handler", http.MethodPost, "/v1/solve", solveBody(fp.Canonical), http.StatusOK)
		rp.hitPath(cache, op, canon[op.base])
		rp.rec.end()
	}
	return nil
}

// derive turns the traced pass's samples, plus the untraced daemon run's
// counted metrics, into the per-layer metrics.
func (rp *replayer) derive(out map[string]float64, run *runOut, name string) {
	s := rp.s
	for k, v := range run.layer {
		out[k] = v
	}
	out["server.handler_us"] = s.med("server.handler_us")
	out["server.handler_allocs"] = s.med("server.handler_allocs")
	out["server.job_accept_us"] = s.med("server.job_accept_us")
	out["obs.trace_us"] = s.med("server.handler_us") - s.med("server.handler_off_us")
	out["obs.trace_allocs"] = s.med("server.handler_allocs") - s.med("server.handler_off_allocs")
	// Transport is the front request's round trip minus its in-process
	// handler: the gateway's for gateway_hits, the job accept for cold_jobs.
	if name == "cold_jobs" {
		out["server.transport_us"] = run.e2e["accept_p50_ms"]*1000 - s.med("server.job_accept_us")
	} else {
		out["server.transport_us"] = run.e2e["lat_p50_ms"]*1000 - s.med("front_us")
	}
	for _, k := range []string{"wire.decode_us", "wire.parse_us", "wire.encode_us", "wire.allocs",
		"bitmat.fingerprint_us", "bitmat.fingerprint_allocs", "bitmat.compress_us", "bitmat.decompose_us",
		"bitmat.refine_us", "solvecache.hit_us", "solvecache.hit_self_us", "solvecache.lift_us",
		"cluster.handler_local_us", "cluster.handler_proxy_us", "store.put_us", "store.journal_append_us"} {
		out[k] = s.med(k)
	}
	out["store.journal_append_p99_us"] = s.p99("store.journal_append_us")
	out["bitmat.rank_us"] = s.mean("bitmat.rank_us")
	for _, k := range []string{"core.solve_ms", "core.self_ms", "core.blocks"} {
		out[k] = s.mean(k)
	}
	ops := float64(len(s["core.solve_ms"]))
	blocks := s.sum("blocks")
	out["rowpack.pack_ms"] = ratio(s.sum("rowpack.pack_ms"), ops)
	out["rowpack.optimal_ratio"] = ratio(s.sum("rowpack.at_final"), blocks)
	out["fooling.exact_ms"] = ratio(s.sum("fooling.exact_ms"), ops)
	out["fooling.decides_ratio"] = ratio(s.sum("fooling.decides"), blocks)
	out["encode.build_ms"] = s.mean("encode.build_ms")
	out["encode.vars"] = s.mean("encode.vars")
	out["encode.clauses"] = s.mean("encode.clauses")
	out["sat.solve_ms"] = s.mean("sat.block_ms")
	out["sat.conflicts"] = s.sum("sat.block_conflicts")
	out["sat.conflicts_per_s"] = ratio(s.sum("sat.block_conflicts"), s.sum("sat.block_ms")/1000)
	out["sat.probes"] = s.sum("sat.probes")
	out["sat.budget_exhausted"] = s.sum("sat.budget_exhausted")
	out["sat.proof_conflict_ratio"] = ratio(s.sum("sat.proof_conflicts"), s.sum("sat.block_conflicts"))
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = 0
		}
	}
}
