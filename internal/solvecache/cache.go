// Package solvecache puts a canonicalizing result cache in front of the core
// solve pipeline. Requests are keyed by the matrix's canonical fingerprint
// (bitmat.ComputeFingerprint), so any two matrices that are equal up to
// row/column permutation, duplicated rows/columns or zero padding share one
// cache slot: addressing workloads resubmit the same pattern shuffled, and
// the cache turns those resubmissions into O(1) lookups plus a lift.
//
// Four mechanisms compose:
//
//   - LRU result cache. Only proved-optimal, un-interrupted results are
//     stored (Cacheable): an optimal depth is the binary rank — a property
//     of the matrix alone — so a cached result is correct for every budget
//     and option set, while budget-limited results are request-specific and
//     never cached. Lookup serves from the LRU alone and SeedIndexed fills
//     it from a partition held as index lists; together they make the
//     cluster gateway's local tier, the same LRU and hit path ebmfd runs.
//   - Singleflight. Concurrent requests with the same fingerprint elect one
//     leader that runs the pipeline on the canonical matrix; everyone else
//     waits and lifts the leader's result into their own index space. N
//     identical concurrent requests cost exactly one solve. A leader that
//     fails without a verdict (panic) abandons the flight; waiting
//     followers re-elect instead of wedging.
//   - Durable tier (optional, AttachStore). Fresh proved-optimal results
//     are written through to an internal/store WAL keyed by the same
//     fingerprint; an LRU miss falls back to the store before leading a
//     solve, so a restarted process serves its whole history warm and an
//     LRU eviction is not a death sentence. Seed and SeedIndexed inject
//     replicated results from other fleet members through the same door.
//   - Lifting. Cached partitions live on the canonical matrix, held once per
//     entry as index lists. A hit maps them through the request's
//     Fingerprint (RowMap/ColMap, then the request's own Compression)
//     straight to sorted request-space index lists (LiftIndices) and
//     re-validates them against the request matrix, so a corrupted or
//     colliding entry degrades to a miss, never to a wrong answer — the same
//     insurance covers durable records and replicated seeds. Bitset
//     rectangles are built only for callers that ask for a *rect.Partition.
//
// Options may differ freely across requests: only proved-optimal results
// cross request boundaries (from the store or from a singleflight leader),
// and an optimal result is correct under every option set — its metadata
// (certificate, lower bounds) reflects the solve that produced it. A
// non-optimal leader result is never shared; followers fall back to solving
// with their own options.
package solvecache

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/rect"
	"repro/internal/store"
)

// DefaultCapacity is the entry capacity used when New is given cap <= 0.
const DefaultCapacity = 1024

// Cache is a fingerprint-keyed solve cache. It is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *entry
	byKey    map[string]*list.Element
	flights  map[string]*flight
	durable  *store.Store // optional write-through durable tier; may be nil

	// solveFn runs the pipeline (core.SolveContext in production; tests
	// inject failures and panics through it).
	solveFn func(ctx context.Context, m *bitmat.Matrix, opts core.Options) (*core.Result, error)

	stats Stats
}

// entry is one cached canonical-space result. Immutable once stored.
type entry struct {
	key string
	// res carries the result's metadata; its Partition is nil.
	res *core.Result
	// rects is the partition of the rows×cols canonical matrix, as sorted
	// index lists sharing one backing array.
	rects      []RectIndices
	rows, cols int
}

// newEntry builds an entry from a result's metadata (its Partition is not
// read) and its partition of the rows×cols canonical matrix as index lists.
func newEntry(key string, res *core.Result, rows, cols int, rects []RectIndices) *entry {
	meta := *res
	meta.Partition = nil
	return &entry{key: key, res: &meta, rects: rects, rows: rows, cols: cols}
}

// entryOf flattens a canonical-space result with a non-nil Partition.
func entryOf(key string, res *core.Result) *entry {
	return newEntry(key, res, res.Partition.M.Rows(), res.Partition.M.Cols(), indicesOf(res.Partition))
}

// indicesOf lists a partition's rectangles as index lists sharing one
// backing array.
func indicesOf(p *rect.Partition) []RectIndices {
	n := 0
	for _, r := range p.Rects {
		n += r.Rows.Ones() + r.Cols.Ones()
	}
	buf := make([]int, 0, n)
	out := make([]RectIndices, len(p.Rects))
	for k, r := range p.Rects {
		start := len(buf)
		r.Rows.ForEachOne(func(i int) { buf = append(buf, i) })
		mid := len(buf)
		r.Cols.ForEachOne(func(j int) { buf = append(buf, j) })
		out[k] = RectIndices{Rows: buf[start:mid:mid], Cols: buf[mid:len(buf):len(buf)]}
	}
	return out
}

// flight is one in-progress leader solve that followers wait on. res/canon/
// err/abandoned are written before done is closed and read only after it is
// closed.
type flight struct {
	done chan struct{}
	res  *core.Result
	// canon is the entry the leader stored; nil when res is not cacheable.
	canon *entry
	err   error
	// abandoned marks a flight whose leader died without a verdict (its
	// pipeline panicked). Followers re-elect a new leader instead of
	// inheriting an error the matrix did not cause.
	abandoned bool
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts requests served from the LRU store.
	Hits int64 `json:"hits"`
	// DurableHits counts requests that missed the LRU but were served from
	// the attached durable store (boot-warm or post-eviction hits).
	DurableHits int64 `json:"durable_hits"`
	// Seeds counts results injected via Seed (cache-fill replication).
	Seeds int64 `json:"seeds"`
	// SharedHits counts requests that waited on an in-flight identical solve
	// and shared its result (singleflight followers).
	SharedHits int64 `json:"shared_hits"`
	// Misses counts requests that led a pipeline solve, plus Lookup calls
	// that found no entry.
	Misses int64 `json:"misses"`
	// Uncacheable counts requests whose fingerprint exceeded the
	// canonicalization budget and bypassed the cache entirely.
	Uncacheable int64 `json:"uncacheable"`
	// Solves counts core pipeline runs issued through the cache (misses,
	// uncacheable bypasses, and canceled-waiter fallbacks).
	Solves int64 `json:"solves"`
	// Stores counts results inserted into the LRU (optimal, uninterrupted).
	Stores int64 `json:"stores"`
	// Evictions counts LRU entries displaced by capacity pressure.
	Evictions int64 `json:"evictions"`
	// LiftFailures counts cache entries that failed re-validation against
	// the request matrix and degraded to a miss (hash collision insurance;
	// expected to stay 0).
	LiftFailures int64 `json:"lift_failures"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// HitRate returns the fraction of fingerprinted requests served without a
// fresh pipeline run.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.DurableHits + s.SharedHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DurableHits+s.SharedHits) / float64(total)
}

// New returns a cache holding up to capacity results (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
		solveFn:  core.SolveContext,
	}
}

// AttachStore wires a durable tier beneath the LRU: fresh proved-optimal
// results are written through to st, and LRU misses fall back to it before
// leading a pipeline solve. The store was loaded by store.Open, so attaching
// it is the boot-time warm start — every previously proved result is one
// map lookup away. The caller retains ownership of st (and must Close it).
func (c *Cache) AttachStore(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durable = st
}

// Store returns the attached durable tier (nil when none).
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durable
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Solve is SolveContext with a background context.
func (c *Cache) Solve(m *bitmat.Matrix, opts core.Options) (*core.Result, error) {
	return c.SolveContext(context.Background(), m, opts)
}

// SolveContext solves m through the cache: fingerprint, LRU lookup,
// singleflight, and only then a pipeline run on the canonical matrix. The
// result contract matches core.SolveContext — a valid partition is always
// returned — with Result.CacheHit set (and solver-stage stats zeroed) when
// no pipeline work was done for this request.
func (c *Cache) SolveContext(ctx context.Context, m *bitmat.Matrix, opts core.Options) (*core.Result, error) {
	res, _, err := c.SolveContextKeyed(ctx, m, opts)
	return res, err
}

// SolveContextKeyed is SolveContext that additionally returns the matrix's
// canonical fingerprint hash ("" when canonicalization exceeded its budget
// and the request bypassed the cache).
func (c *Cache) SolveContextKeyed(ctx context.Context, m *bitmat.Matrix, opts core.Options) (*core.Result, string, error) {
	a, hash, err := c.solve(ctx, m, opts)
	if err != nil {
		return nil, hash, err
	}
	if a.res.Partition == nil {
		a.res.Partition = partitionOf(m, a.rects)
	}
	return a.res, hash, nil
}

// SolveContextIndexed is SolveContextKeyed for callers that serve the
// partition as index lists: rects holds the request-space rectangles as
// sorted index lists sharing one backing array, and the result's Partition
// is nil whenever the answer was lifted from a canonical entry — a cache
// hit never builds a bitset rectangle.
func (c *Cache) SolveContextIndexed(ctx context.Context, m *bitmat.Matrix, opts core.Options) (*core.Result, []RectIndices, string, error) {
	a, hash, err := c.solve(ctx, m, opts)
	if err != nil {
		return nil, nil, hash, err
	}
	if a.rects == nil {
		a.rects = indicesOf(a.res.Partition)
	}
	return a.res, a.rects, hash, nil
}

// answer is one request's result: lifted from a canonical entry (rects set,
// res.Partition nil) or straight from the pipeline (res.Partition set).
type answer struct {
	res   *core.Result
	rects []RectIndices
}

func (c *Cache) solve(ctx context.Context, m *bitmat.Matrix, opts core.Options) (answer, string, error) {
	if m == nil {
		return answer{}, "", core.ErrNilMatrix
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fp := bitmat.ComputeFingerprint(m)
	if !fp.Exact {
		c.count(func(s *Stats) { s.Uncacheable++; s.Solves++ })
		res, err := c.solveFn(ctx, m, opts)
		return answer{res: res}, "", err
	}

	triedDurable := false
	for {
		c.mu.Lock()
		if el, ok := c.byKey[fp.Hash]; ok {
			if a, ok := c.hit(el, fp, m); ok {
				return a, fp.Hash, nil
			}
			// Collision insurance: hit dropped the entry; solve for real.
			continue
		}
		if f, ok := c.flights[fp.Hash]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				// Honour the SolveContext contract without waiting on the
				// leader: the pipeline on an already-canceled context still
				// returns a valid heuristic partition, marked Canceled.
				c.count(func(s *Stats) { s.Solves++ })
				res, err := c.solveFn(ctx, m, opts)
				return answer{res: res}, fp.Hash, err
			case <-f.done:
			}
			if f.abandoned {
				// The leader died without a verdict (its pipeline panicked).
				// That says nothing about this matrix — re-elect: the next
				// loop hits the durable tier or leads a fresh solve.
				continue
			}
			if f.err != nil {
				return answer{}, fp.Hash, f.err
			}
			if !Cacheable(f.res) {
				// The leader's result is request-specific (budget-limited,
				// canceled, or heuristic-only under its options). Sharing it
				// could hand this request a weaker answer than its own
				// options would produce — loop and solve with them instead.
				continue
			}
			c.count(func(s *Stats) { s.SharedHits++ })
			if a, err := lift(f.canon, fp, m, true); err == nil {
				return a, fp.Hash, nil
			}
			c.count(func(s *Stats) { s.LiftFailures++ })
			continue
		}
		if durable := c.durable; durable != nil && !triedDurable {
			// LRU miss, no flight: consult the durable tier before paying
			// for a pipeline run. Reconstruction and lifting run outside
			// the cache lock (the store has its own); racing requests at
			// worst promote the same record twice.
			c.mu.Unlock()
			triedDurable = true
			if e := durableLookup(durable, fp.Hash); e != nil {
				if a, err := lift(e, fp, m, true); err == nil {
					c.mu.Lock()
					c.store(e)
					c.stats.DurableHits++
					c.mu.Unlock()
					return a, fp.Hash, nil
				}
				// The durable record failed re-validation against the
				// request matrix (corruption that passed the CRC, or a
				// fingerprint collision): drop it and solve for real.
				c.count(func(s *Stats) { s.LiftFailures++ })
				durable.Delete(fp.Hash)
			}
			continue
		}
		// Lead a solve of the canonical matrix.
		f := &flight{done: make(chan struct{})}
		c.flights[fp.Hash] = f
		c.stats.Misses++
		c.stats.Solves++
		c.mu.Unlock()

		res, err := c.leadSolve(ctx, fp, f, opts)
		if err != nil {
			return answer{}, fp.Hash, err
		}
		canon := f.canon
		if canon == nil {
			canon = entryOf(fp.Hash, res)
		}
		a, err := lift(canon, fp, m, false)
		return a, fp.Hash, err
	}
}

// hit serves the LRU entry el, found under c.mu, which hit releases: the
// entry moves to the front and counts as a hit, then lifts onto m outside
// the lock. An entry that fails to lift is dropped (collision insurance)
// and ok is false.
func (c *Cache) hit(el *list.Element, fp *bitmat.Fingerprint, m *bitmat.Matrix) (answer, bool) {
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	c.stats.Hits++
	c.mu.Unlock()
	a, err := lift(e, fp, m, true)
	if err != nil {
		c.invalidate(fp.Hash, el)
		return answer{}, false
	}
	return a, true
}

// Lookup serves m from the LRU alone: no durable tier, no singleflight and
// no solve. A hit lifts exactly as one inside SolveContextIndexed does: the
// result is marked CacheHit with its solver-stage stats zeroed and a nil
// Partition, and rects are m's rectangles as sorted index lists. A key
// that is absent counts as a miss; an entry that fails to lift is dropped
// and counted as a lift failure. Both report ok false. fp must be m's exact
// fingerprint. This is the gateway's local tier: it answers what it holds
// and forwards the rest to a backend.
func (c *Cache) Lookup(fp *bitmat.Fingerprint, m *bitmat.Matrix) (res *core.Result, rects []RectIndices, ok bool) {
	c.mu.Lock()
	el, found := c.byKey[fp.Hash]
	if !found {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	a, ok := c.hit(el, fp, m)
	return a.res, a.rects, ok
}

// leadSolve runs the leader's pipeline with completion insurance: however
// the solve ends — result, error, or panic — the flight is resolved and
// waiting followers released. On a panic the flight is marked abandoned
// (followers re-elect) and the panic propagates to this request alone.
func (c *Cache) leadSolve(ctx context.Context, fp *bitmat.Fingerprint, f *flight, opts core.Options) (res *core.Result, err error) {
	completed := false
	defer func() {
		var canon *entry
		if completed && err == nil && Cacheable(res) {
			canon = entryOf(fp.Hash, res)
		}
		c.mu.Lock()
		delete(c.flights, fp.Hash)
		if canon != nil {
			c.store(canon)
		}
		durable := c.durable
		c.mu.Unlock()
		if canon != nil && durable != nil {
			// Write-through to the durable tier, outside the cache lock
			// (Put may fsync). A disk failure is logged and counted by the
			// store; it never fails the solve that produced the result.
			durable.Put(recordFromEntry(canon))
		}
		f.res, f.canon, f.err, f.abandoned = res, canon, err, !completed
		close(f.done)
	}()
	res, err = c.solveFn(ctx, fp.Canonical, opts)
	completed = true
	return res, err
}

// Seed injects an externally computed proved-optimal canonical result — the
// cache-fill replication path (POST /v1/fill): a gateway pushes results
// solved on one shard to its ring successors so a failover lands on a warm
// cache. res.Partition must index the canonical matrix for hash; the caller
// is responsible for having validated that (the server-side fill handler
// recomputes the fingerprint and re-validates the partition before calling
// Seed), and the usual lift-time re-validation still guards every future
// hit. Returns false when the result is not seedable (non-optimal) or an
// entry already exists in both tiers. A key already in the LRU keeps its
// entry and its place.
func (c *Cache) Seed(hash string, res *core.Result) bool {
	if res == nil || res.Partition == nil {
		return false
	}
	return c.SeedIndexed(hash, res, res.Partition.M.Rows(), res.Partition.M.Cols(), indicesOf(res.Partition))
}

// SeedIndexed is Seed for a canonical partition given as index lists over
// the rows×cols canonical matrix; res.Partition is not read. The entry
// keeps rects as they are, so the caller must not modify them afterwards.
func (c *Cache) SeedIndexed(hash string, res *core.Result, rows, cols int, rects []RectIndices) bool {
	if hash == "" || res == nil || !Cacheable(res) {
		return false
	}
	e := newEntry(hash, res, rows, cols, rects)
	c.mu.Lock()
	_, inLRU := c.byKey[hash]
	if !inLRU {
		c.store(e)
		c.stats.Seeds++
	}
	durable := c.durable
	c.mu.Unlock()
	stored := !inLRU
	if durable != nil {
		if _, ok := durable.Get(hash); !ok {
			durable.Put(recordFromEntry(e))
			stored = true
		}
	}
	return stored
}

// Cacheable reports whether a canonical-space result may be stored: only
// proved-optimal, uninterrupted results are budget-independent facts about
// the matrix.
func Cacheable(res *core.Result) bool {
	return res.Optimal && !res.TimedOut && !res.Canceled
}

// store inserts a canonical-space entry, evicting from the LRU tail.
// Caller holds c.mu.
func (c *Cache) store(e *entry) {
	if el, ok := c.byKey[e.key]; ok {
		c.lru.MoveToFront(el)
		el.Value = e
		return
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	c.stats.Stores++
	for c.lru.Len() > c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// invalidate removes a failed entry (if still present) and counts it. The
// durable tier drops the key too: the entry failed re-validation against a
// matrix that hashes to it, so re-serving it from disk would just fail the
// same way on the next miss.
func (c *Cache) invalidate(key string, el *list.Element) {
	c.mu.Lock()
	c.stats.LiftFailures++
	if cur, ok := c.byKey[key]; ok && cur == el {
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	durable := c.durable
	c.mu.Unlock()
	if durable != nil {
		durable.Delete(key)
	}
}

func (c *Cache) count(fn func(*Stats)) {
	c.mu.Lock()
	fn(&c.stats)
	c.mu.Unlock()
}

// RectIndices is one rectangle as sorted index lists: the cache's form of a
// partition, in canonical space inside an entry and in request space once
// lifted. It is rect.Indices, so a lifted partition goes to the wire as is.
type RectIndices = rect.Indices

// LiftCanonical maps a partition of fp.Canonical (as row/col index lists)
// onto the request matrix m: each rectangle's indices map through the
// fingerprint's canonical→reduced maps, the partition lifts through the
// request's own compression record, and the result is re-validated against
// m — so a corrupted or colliding canonical-space partition is an error,
// never a wrong answer. fp must be Exact and m a matrix with fp's canonical
// form.
func LiftCanonical(fp *bitmat.Fingerprint, m *bitmat.Matrix, rects []RectIndices) (*rect.Partition, error) {
	lifted := make([]RectIndices, len(rects))
	err := LiftIndices(fp, m, len(rects),
		func(k int) ([]int, []int) { return rects[k].Rows, rects[k].Cols },
		func(k int, rows, cols []int) { lifted[k] = RectIndices{Rows: rows, Cols: cols} })
	if err != nil {
		return nil, err
	}
	return partitionOf(m, lifted), nil
}

// LiftIndices is the index-space lift behind every cache hit. canon(k)
// returns canonical rectangle k's row and column lists (k < depth); each
// index maps through fp.RowMap/ColMap and then expands to its group in the
// request's compression record, giving sorted, duplicate-free request-space
// lists that share one backing array and are handed to out(k, rows, cols).
// The lifted rectangles are validated against m as they are produced, so a
// corrupted or colliding canonical partition is an error, never a wrong
// answer; on an error, whatever out received must be discarded. fp must be
// Exact and m a matrix with fp's canonical form.
func LiftIndices(fp *bitmat.Fingerprint, m *bitmat.Matrix, depth int, canon func(k int) (rows, cols []int), out func(k int, rows, cols []int)) error {
	if !fp.Exact {
		return fmt.Errorf("solvecache: cannot lift through an inexact fingerprint")
	}
	groups := fp.Comp
	total := 0
	for k := 0; k < depth; k++ {
		rows, cols := canon(k)
		for _, i := range rows {
			if i < 0 || i >= len(fp.RowMap) {
				return fmt.Errorf("solvecache: canonical row %d out of range", i)
			}
			total += len(groups.RowGroups[fp.RowMap[i]])
		}
		for _, j := range cols {
			if j < 0 || j >= len(fp.ColMap) {
				return fmt.Errorf("solvecache: canonical col %d out of range", j)
			}
			total += len(groups.ColGroups[fp.ColMap[j]])
		}
	}
	buf := make([]int, 0, total)
	check := rect.NewChecker(m)
	for k := 0; k < depth; k++ {
		rows, cols := canon(k)
		start := len(buf)
		buf = expand(buf, rows, fp.RowMap, groups.RowGroups)
		mid := len(buf)
		buf = expand(buf, cols, fp.ColMap, groups.ColGroups)
		lr, lc := buf[start:mid:mid], buf[mid:len(buf):len(buf)]
		if err := check.AddIndices(lr, lc); err != nil {
			return fmt.Errorf("solvecache: lifted partition invalid: %w", err)
		}
		out(k, lr, lc)
	}
	if err := check.Done(); err != nil {
		return fmt.Errorf("solvecache: lifted partition invalid: %w", err)
	}
	return nil
}

// expand appends the request-space lines of canonical lines idx — each
// through canon→reduced map and then its duplicate group — sorted and
// without repeats.
func expand(buf, idx, canonMap []int, groups [][]int) []int {
	start := len(buf)
	for _, i := range idx {
		buf = append(buf, groups[canonMap[i]]...)
	}
	seg := buf[start:]
	slices.Sort(seg)
	return buf[:start+len(slices.Compact(seg))]
}

// partitionOf builds the bitset partition of m for index-list rectangles;
// all row sets share one bit matrix, and all column sets another.
func partitionOf(m *bitmat.Matrix, rects []RectIndices) *rect.Partition {
	p := rect.NewPartition(m)
	if len(rects) == 0 {
		return p
	}
	rowSets := bitmat.New(len(rects), m.Rows())
	colSets := bitmat.New(len(rects), m.Cols())
	p.Rects = make([]rect.Rect, len(rects))
	for k, r := range rects {
		p.Rects[k] = rect.Rect{Rows: rowSets.Row(k), Cols: colSets.Row(k)}
		for _, i := range r.Rows {
			p.Rects[k].Rows.Set(i, true)
		}
		for _, j := range r.Cols {
			p.Rects[k].Cols.Set(j, true)
		}
	}
	return p
}

// lift maps a canonical entry onto the request matrix. hit marks the result
// as cache-served, zeroing the solver-stage stats (they describe work this
// request did not do).
func lift(e *entry, fp *bitmat.Fingerprint, m *bitmat.Matrix, hit bool) (answer, error) {
	rects := make([]RectIndices, len(e.rects))
	err := LiftIndices(fp, m, len(e.rects),
		func(k int) ([]int, []int) { return e.rects[k].Rows, e.rects[k].Cols },
		func(k int, rows, cols []int) { rects[k] = RectIndices{Rows: rows, Cols: cols} })
	if err != nil {
		return answer{}, err
	}
	out := *e.res
	out.Depth = len(rects)
	if hit {
		out.CacheHit = true
		out.SATCalls = 0
		out.Conflicts = 0
		out.PackTime = 0
		out.SATTime = 0
	}
	return answer{res: &out, rects: rects}, nil
}
