package solvecache

// Conversion between the cache's in-memory canonical results and the durable
// tier's pure-data records. The store holds only the partition (as index
// lists) plus provenance; the canonical matrix is reconstructed from the
// rectangles themselves — a valid partition exactly covers the matrix's 1s,
// so persisting the matrix separately would only create a second source of
// truth to keep consistent.

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/rect"
	"repro/internal/store"
)

// recordFromEntry flattens a canonical entry into a store.Record.
func recordFromEntry(e *entry) *store.Record {
	rects := make([]store.RectRecord, len(e.rects))
	for k, r := range e.rects {
		rects[k] = store.RectRecord{Rows: r.Rows, Cols: r.Cols}
	}
	res := e.res
	return &store.Record{
		Hash:           e.key,
		Rows:           e.rows,
		Cols:           e.cols,
		Depth:          len(e.rects),
		Certificate:    int(res.Certificate),
		RankLB:         res.RankLB,
		FoolingLB:      res.FoolingLB,
		Blocks:         res.Blocks,
		HeuristicDepth: res.HeuristicDepth,
		Rects:          rects,
	}
}

// resultFromRecord rebuilds a canonical-space result: the canonical matrix
// is the union of the record's rectangles, and the partition is validated
// against it — overlapping or inconsistent rectangles fail here rather than
// reaching the cache. The returned result is Optimal (only proved-optimal
// results are ever persisted) with CacheHit left false; lift sets the hit
// marking per request.
func resultFromRecord(rec *store.Record) (*core.Result, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	m := bitmat.New(rec.Rows, rec.Cols)
	p := rect.NewPartition(m)
	for _, rr := range rec.Rects {
		nr := rect.NewRect(rec.Rows, rec.Cols)
		for _, i := range rr.Rows {
			nr.Rows.Set(i, true)
			for _, j := range rr.Cols {
				m.Set(i, j, true)
			}
		}
		for _, j := range rr.Cols {
			nr.Cols.Set(j, true)
		}
		p.Add(nr)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("solvecache: durable record %s: %w", rec.Hash, err)
	}
	return &core.Result{
		Partition:      p,
		Depth:          rec.Depth,
		RankLB:         rec.RankLB,
		FoolingLB:      rec.FoolingLB,
		Optimal:        true,
		Certificate:    core.Certificate(rec.Certificate),
		Blocks:         rec.Blocks,
		HeuristicDepth: rec.HeuristicDepth,
	}, nil
}

// durableLookup fetches and reconstructs hash from the store as a cache
// entry, dropping records that fail reconstruction (corruption that survived
// the CRC): a damaged record degrades to a cache miss, never to a wrong
// answer.
func durableLookup(st *store.Store, hash string) *entry {
	rec, ok := st.Get(hash)
	if !ok {
		return nil
	}
	res, err := resultFromRecord(rec)
	if err != nil {
		st.Delete(hash)
		return nil
	}
	return entryOf(hash, res)
}
