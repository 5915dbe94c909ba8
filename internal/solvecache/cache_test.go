package solvecache

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
)

const fig1b = `101100
010011
101010
010101
111000
000111`

func permute(m *bitmat.Matrix, rng *rand.Rand) *bitmat.Matrix {
	rp := rng.Perm(m.Rows())
	cp := rng.Perm(m.Cols())
	out := bitmat.New(m.Rows(), m.Cols())
	m.ForEachOne(func(i, j int) { out.Set(rp[i], cp[j], true) })
	return out
}

func TestCacheHitOnResubmission(t *testing.T) {
	c := New(0)
	m := bitmat.MustParse(fig1b)
	opts := core.DefaultOptions()

	r1, err := c.Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatalf("first solve flagged as cache hit")
	}
	if !r1.Optimal || r1.Depth != 5 {
		t.Fatalf("fig1b: depth=%d optimal=%v, want 5/true", r1.Depth, r1.Optimal)
	}

	r2, err := c.Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatalf("identical resubmission missed the cache")
	}
	if r2.Depth != r1.Depth || !r2.Optimal {
		t.Fatalf("cached result depth=%d optimal=%v, want %d/true", r2.Depth, r2.Optimal, r1.Depth)
	}
	if r2.SATCalls != 0 || r2.Conflicts != 0 || r2.PackTime != 0 || r2.SATTime != 0 {
		t.Fatalf("cache hit did not zero solver-stage stats: %+v", r2)
	}
	if err := r2.Partition.Validate(); err != nil {
		t.Fatalf("cached partition invalid: %v", err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 solve", s)
	}
}

func TestCacheHitOnPermutedResubmission(t *testing.T) {
	c := New(0)
	opts := core.DefaultOptions()
	m := bitmat.MustParse(fig1b)
	r1, err := c.Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		p := permute(m, rng)
		r2, err := c.Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.CacheHit {
			t.Fatalf("trial %d: permuted resubmission missed", trial)
		}
		if r2.Depth != r1.Depth {
			t.Fatalf("trial %d: depth %d != %d", trial, r2.Depth, r1.Depth)
		}
		if r2.Partition.M != p {
			t.Fatalf("trial %d: partition not lifted onto the request matrix", trial)
		}
		if err := r2.Partition.Validate(); err != nil {
			t.Fatalf("trial %d: lifted partition invalid: %v", trial, err)
		}
	}
	if s := c.Stats(); s.Solves != 1 {
		t.Fatalf("permuted resubmissions triggered %d solves, want 1", s.Solves)
	}
}

func TestCacheHitOnDuplicatedAndPaddedResubmission(t *testing.T) {
	c := New(0)
	opts := core.DefaultOptions()
	m := bitmat.MustParse(fig1b)
	if _, err := c.Solve(m, opts); err != nil {
		t.Fatal(err)
	}
	// Duplicate every row and add zero columns: same canonical form, and the
	// lifted partition must cover the doubled matrix.
	rows := m.ToRows()
	var dup [][]int
	for _, r := range rows {
		wide := append(append([]int{0}, r...), 0)
		dup = append(dup, wide, wide)
	}
	big := bitmat.FromRows(dup)
	r, err := c.Solve(big, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatalf("duplicated/padded resubmission missed the cache")
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatalf("lifted partition invalid: %v", err)
	}
	if r.Depth != 5 {
		t.Fatalf("depth = %d, want 5 (duplication preserves binary rank)", r.Depth)
	}
}

func TestCacheDoesNotStoreBudgetLimitedResults(t *testing.T) {
	c := New(0)
	opts := core.DefaultOptions()
	opts.ConflictBudget = 1 // guarantees TimedOut before optimality on fig1b
	opts.FoolingBudget = 0
	opts.Packing.Trials = 1
	opts.Packing.SkipTranspose = true
	m := bitmat.MustParse(fig1b)
	r, err := c.Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimal && !r.TimedOut {
		t.Skip("budget unexpectedly sufficed; nothing to assert")
	}
	if s := c.Stats(); s.Stores != 0 {
		t.Fatalf("budget-limited result was stored: %+v", s)
	}
	r2, err := c.Solve(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatalf("second solve hit a cache that should be empty")
	}
	if !r2.Optimal {
		t.Fatalf("unbudgeted solve not optimal")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	opts := core.DefaultOptions()
	ms := []*bitmat.Matrix{
		bitmat.MustParse("1"),
		bitmat.MustParse("10\n01"),
		bitmat.MustParse("110\n011"),
	}
	for _, m := range ms {
		if _, err := c.Solve(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	// ms[0] was least recently used and must have been evicted.
	r, err := c.Solve(ms[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatalf("evicted entry served as hit")
	}
	r2, err := c.Solve(ms[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatalf("recently used entry was evicted")
	}
}

// TestCacheEvictionOrderFollowsUse pins the LRU policy: a hit refreshes an
// entry's position, so under capacity pressure the entry evicted is the one
// least recently *used*, not the one least recently *stored*.
func TestCacheEvictionOrderFollowsUse(t *testing.T) {
	c := New(2)
	opts := core.DefaultOptions()
	a := bitmat.MustParse("1")
	b := bitmat.MustParse("10\n01")
	d := bitmat.MustParse("110\n011")
	for _, m := range []*bitmat.Matrix{a, b} {
		if _, err := c.Solve(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a (the older entry), then insert d: b must be the eviction
	// victim even though it was stored after a.
	if r, err := c.Solve(a, opts); err != nil || !r.CacheHit {
		t.Fatalf("warming hit on a: hit=%v err=%v", r != nil && r.CacheHit, err)
	}
	if _, err := c.Solve(d, opts); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	if r, err := c.Solve(a, opts); err != nil || !r.CacheHit {
		t.Fatalf("recently used entry a was evicted (hit=%v err=%v)", r != nil && r.CacheHit, err)
	}
	if r, err := c.Solve(b, opts); err != nil || r.CacheHit {
		t.Fatalf("least recently used entry b survived (hit=%v err=%v)", r != nil && r.CacheHit, err)
	}
}

// TestSingleflightLeaderCanceledFollowerResolves pins the sharing policy for
// interrupted leaders: when the in-flight request's context is canceled, its
// Canceled (non-optimal-quality) result must not be handed to a follower
// with a live context — the follower re-solves and gets the real answer.
func TestSingleflightLeaderCanceledFollowerResolves(t *testing.T) {
	c := New(0)
	m := bitmat.MustParse(fig1b)
	fp := bitmat.ComputeFingerprint(m)

	// Stage an in-progress flight, then have a follower with a background
	// context join it.
	f := &flight{done: make(chan struct{})}
	c.mu.Lock()
	c.flights[fp.Hash] = f
	c.mu.Unlock()

	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Solve(m, core.DefaultOptions())
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		t.Fatalf("follower completed before the flight resolved: %+v, %v", o.res, o.err)
	case <-time.After(50 * time.Millisecond):
	}

	// The leader's context is canceled mid-flight: it resolves the flight
	// with a Canceled result, exactly what SolveContext produces when its
	// caller goes away.
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	leaderRes, err := core.SolveContext(canceledCtx, fp.Canonical, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !leaderRes.Canceled {
		t.Skip("canceled-context solve unexpectedly completed; nothing to assert")
	}
	c.mu.Lock()
	delete(c.flights, fp.Hash)
	c.mu.Unlock()
	f.res, f.err = leaderRes, nil
	close(f.done)

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Canceled {
		t.Fatalf("follower received the leader's canceled result: %+v", o.res)
	}
	if o.res.CacheHit {
		t.Fatalf("follower counted a canceled leader result as a hit: %+v", o.res)
	}
	if !o.res.Optimal || o.res.Depth != 5 {
		t.Fatalf("follower re-solve: depth=%d optimal=%v, want 5/true", o.res.Depth, o.res.Optimal)
	}
	if err := o.res.Partition.Validate(); err != nil {
		t.Fatalf("follower partition invalid: %v", err)
	}
}

// TestLiftCanonicalRejectsCorruptPartitions pins the exported lift's
// validation contract: out-of-range indices and non-covering partitions are
// errors, never silently wrong answers.
func TestLiftCanonicalRejectsCorruptPartitions(t *testing.T) {
	m := bitmat.MustParse(fig1b)
	fp := bitmat.ComputeFingerprint(m)
	res, err := core.Solve(fp.Canonical, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := make([]RectIndices, 0, len(res.Partition.Rects))
	for _, r := range res.Partition.Rects {
		good = append(good, RectIndices{Rows: r.RowIndices(), Cols: r.ColIndices()})
	}
	if p, err := LiftCanonical(fp, m, good); err != nil {
		t.Fatalf("valid canonical partition failed to lift: %v", err)
	} else if p.Depth() != 5 {
		t.Fatalf("lifted depth %d, want 5", p.Depth())
	}
	// Out-of-range row index.
	bad := append([]RectIndices(nil), good...)
	bad[0] = RectIndices{Rows: []int{len(fp.RowMap)}, Cols: good[0].Cols}
	if _, err := LiftCanonical(fp, m, bad); err == nil {
		t.Fatalf("out-of-range canonical row lifted without error")
	}
	// Dropping a rectangle leaves ones uncovered: validation must fail.
	if _, err := LiftCanonical(fp, m, good[:len(good)-1]); err == nil {
		t.Fatalf("non-covering canonical partition lifted without error")
	}
	// Inexact fingerprints cannot be lifted through.
	if _, err := LiftCanonical(&bitmat.Fingerprint{}, m, good); err == nil {
		t.Fatalf("inexact fingerprint lifted without error")
	}
}

// TestLookupAndSeedIndexed pins the entry points of the gateway's local
// tier: Lookup answers from the LRU alone (an absent key is a counted miss
// and nothing is solved), a hit is the same answer a Solve hit gives, a
// failing entry is dropped, and SeedIndexed leaves a cached key in place.
func TestLookupAndSeedIndexed(t *testing.T) {
	c := New(0)
	m := bitmat.MustParse(fig1b)
	p := permute(m, rand.New(rand.NewSource(5)))
	fp := bitmat.ComputeFingerprint(p)
	if _, _, ok := c.Lookup(fp, p); ok {
		t.Fatal("lookup hit an empty cache")
	}
	if s := c.Stats(); s.Misses != 1 || s.Solves != 0 {
		t.Fatalf("empty lookup: stats %+v, want 1 miss and no solve", s)
	}
	canon, err := core.Solve(fp.Canonical, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := fp.Canonical.Rows(), fp.Canonical.Cols()
	if !c.SeedIndexed(fp.Hash, canon, rows, cols, indicesOf(canon.Partition)) {
		t.Fatal("seed refused")
	}
	res, rects, ok := c.Lookup(fp, p)
	if !ok || !res.CacheHit || res.Partition != nil || res.Depth != 5 || res.SATCalls != 0 || res.PackTime != 0 {
		t.Fatalf("lookup hit: ok=%v %+v", ok, res)
	}
	sres, srects, _, err := c.SolveContextIndexed(context.Background(), p, core.DefaultOptions())
	if err != nil || *sres != *res || !reflect.DeepEqual(srects, rects) {
		t.Fatalf("solve hit differs from lookup hit: %+v %v vs %+v %v (err %v)", sres, srects, res, rects, err)
	}
	// A second seed under the same key is refused and changes nothing.
	wrong := []RectIndices{{Rows: seq(rows), Cols: seq(cols)}}
	if c.SeedIndexed(fp.Hash, &core.Result{Depth: 1, Optimal: true}, rows, cols, wrong) {
		t.Fatal("seed replaced a cached entry")
	}
	if res, _, ok := c.Lookup(fp, p); !ok || res.Depth != 5 {
		t.Fatalf("entry after a refused seed: ok=%v %+v", ok, res)
	}
	// A wrong entry under another real key fails to lift and is dropped.
	q := bitmat.MustParse("110\n011")
	qfp := bitmat.ComputeFingerprint(q)
	qr, qc := qfp.Canonical.Rows(), qfp.Canonical.Cols()
	if !c.SeedIndexed(qfp.Hash, &core.Result{Depth: 1, Optimal: true}, qr, qc, []RectIndices{{Rows: seq(qr), Cols: seq(qc)}}) {
		t.Fatal("seed of a second key refused")
	}
	if _, _, ok := c.Lookup(qfp, q); ok {
		t.Fatal("wrong entry served")
	}
	want := Stats{Hits: 4, Misses: 1, Seeds: 2, Stores: 2, LiftFailures: 1, Entries: 1}
	if s := c.Stats(); s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSingleflightDeduplicatesConcurrentPermutations(t *testing.T) {
	c := New(0)
	opts := core.DefaultOptions()
	m := bitmat.MustParse(fig1b)
	rng := rand.New(rand.NewSource(99))
	const n = 32
	reqs := make([]*bitmat.Matrix, n)
	for i := range reqs {
		reqs[i] = permute(m, rng)
	}
	var wg sync.WaitGroup
	depths := make([]int, n)
	errs := make([]error, n)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Solve(reqs[i], opts)
			if err == nil {
				depths[i] = res.Depth
				err = res.Partition.Validate()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if depths[i] != 5 {
			t.Fatalf("request %d: depth %d, want 5", i, depths[i])
		}
	}
	if s := c.Stats(); s.Solves != 1 {
		t.Fatalf("%d concurrent permutations triggered %d solves, want 1", n, s.Solves)
	}
}

// TestSingleflightDoesNotShareNonOptimalLeaderResults pins the sharing
// policy: a follower must not inherit a leader's request-specific
// (budget-limited / heuristic-only) result — it re-solves with its own
// options once the flight resolves.
func TestSingleflightDoesNotShareNonOptimalLeaderResults(t *testing.T) {
	c := New(0)
	m := bitmat.MustParse(fig1b)
	fp := bitmat.ComputeFingerprint(m)

	// Stage an in-progress flight, then have the follower request the same
	// matrix with full exact options.
	f := &flight{done: make(chan struct{})}
	c.mu.Lock()
	c.flights[fp.Hash] = f
	c.mu.Unlock()

	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Solve(m, core.DefaultOptions())
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		t.Fatalf("follower completed before the flight resolved: %+v, %v", o.res, o.err)
	case <-time.After(50 * time.Millisecond):
	}

	// The "leader" finishes with a heuristic-only, non-optimal result on the
	// canonical matrix (fooling bound disabled so the bound cannot close).
	badOpts := core.DefaultOptions()
	badOpts.SkipSAT = true
	badOpts.FoolingBudget = 0
	badOpts.Packing.Trials = 1
	badOpts.Packing.SkipTranspose = true
	badRes, err := core.Solve(fp.Canonical, badOpts)
	if err != nil {
		t.Fatal(err)
	}
	if badRes.Optimal {
		t.Skip("heuristic result unexpectedly optimal; nothing to assert")
	}
	c.mu.Lock()
	delete(c.flights, fp.Hash)
	c.mu.Unlock()
	f.res, f.err = badRes, nil
	close(f.done)

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.CacheHit {
		t.Fatalf("follower shared a non-optimal leader result: %+v", o.res)
	}
	if !o.res.Optimal || o.res.Depth != 5 {
		t.Fatalf("follower re-solve: depth=%d optimal=%v, want 5/true", o.res.Depth, o.res.Optimal)
	}
}

func TestCacheCanceledContextStillReturnsPartition(t *testing.T) {
	c := New(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := bitmat.MustParse(fig1b)
	res, err := c.SolveContext(ctx, m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("canceled solve returned invalid partition: %v", err)
	}
	if res.Optimal && !res.Canceled {
		// Small instances can complete optimally before the first
		// cancellation poll; either outcome must be internally consistent.
		return
	}
	if res.Canceled && res.SATTime != 0 && res.SATCalls == 0 {
		t.Fatalf("canceled result has SAT time without SAT calls: %+v", res)
	}
}

func TestCacheNilMatrix(t *testing.T) {
	c := New(0)
	if _, err := c.Solve(nil, core.DefaultOptions()); err != core.ErrNilMatrix {
		t.Fatalf("err = %v, want ErrNilMatrix", err)
	}
}

func TestCacheZeroAndUnitMatrices(t *testing.T) {
	c := New(0)
	opts := core.DefaultOptions()
	for _, m := range []*bitmat.Matrix{bitmat.New(3, 4), bitmat.MustParse("1"), bitmat.New(1, 1)} {
		r, err := c.Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Partition.Validate(); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !r.Optimal {
			t.Fatalf("trivial matrix not optimal")
		}
	}
	// 3×4 and 1×1 zero matrices share a fingerprint: the second zero solve
	// must be a hit with an empty partition of the right dimensions.
	r, err := c.Solve(bitmat.New(7, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit || r.Depth != 0 {
		t.Fatalf("zero-matrix resubmission: hit=%v depth=%d, want true/0", r.CacheHit, r.Depth)
	}
	if r.Partition.M.Rows() != 7 || r.Partition.M.Cols() != 2 {
		t.Fatalf("partition not lifted onto request dimensions")
	}
}
