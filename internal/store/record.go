package store

import (
	"errors"
	"fmt"
)

// RectRecord is one canonical-space rectangle as explicit index lists. It
// holds what rect.Indices holds (the form the cache tiers and the wire
// share), but it is a type of its own: its on-disk JSON tags are "r" and
// "c", and the store stays a pure persistence layer with no dependencies.
type RectRecord struct {
	Rows []int `json:"r"`
	Cols []int `json:"c"`
}

// Record is one durable proved-optimal canonical result. It is pure data:
// the partition indexes the canonical matrix (Rows×Cols), which the reader
// reconstructs from the rectangles themselves — a partition exactly covers
// the canonical matrix's 1s, so the matrix needs no separate serialization.
//
// Records are immutable facts. An optimal depth is the binary rank of the
// matrix — a property of the matrix alone, independent of any budget or
// option set — so a record written once is correct forever and the store
// never needs an invalidation path.
type Record struct {
	// Hash is the canonical fingerprint (bitmat.Fingerprint.Hash).
	Hash string `json:"hash"`
	// Rows, Cols are the canonical matrix dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Depth is the proved-optimal depth (= len(Rects)).
	Depth int `json:"depth"`
	// Certificate is the core.Certificate ordinal that proved optimality.
	Certificate int `json:"certificate,omitempty"`
	// RankLB, FoolingLB, Blocks, HeuristicDepth preserve the original
	// solve's provenance so a durable hit reports the same metadata as an
	// LRU hit.
	RankLB         int `json:"rank_lb,omitempty"`
	FoolingLB      int `json:"fooling_lb,omitempty"`
	Blocks         int `json:"blocks,omitempty"`
	HeuristicDepth int `json:"heuristic_depth,omitempty"`
	// Rects is the canonical-space partition.
	Rects []RectRecord `json:"rects"`
}

// Record validation failure modes.
var (
	errNoHash        = errors.New("store: record has no fingerprint hash")
	errBadDims       = errors.New("store: record has non-positive dimensions")
	errDepthMismatch = errors.New("store: record depth != rectangle count")
	errEmptyRect     = errors.New("store: record has an empty rectangle")
	errIndexRange    = errors.New("store: record rectangle index out of range")
)

// maxDim bounds the claimed canonical dimensions so a corrupt length field
// that happens to checksum correctly cannot make a reader allocate gigabytes.
const maxDim = 1 << 20

// Validate checks the record's internal consistency: positive in-bounds
// dimensions, depth matching the rectangle count, and every rectangle
// nonempty with indices inside the canonical matrix. Semantic validity
// (does the partition actually factor the matrix?) is re-checked by the
// cache at hit time via lifting — a record that passes Validate but lies
// about its matrix degrades to a cache miss, never to a wrong answer.
func (r *Record) Validate() error {
	if r.Hash == "" {
		return errNoHash
	}
	if r.Rows <= 0 || r.Cols <= 0 || r.Rows > maxDim || r.Cols > maxDim {
		return fmt.Errorf("%w: %dx%d", errBadDims, r.Rows, r.Cols)
	}
	if r.Depth != len(r.Rects) {
		return fmt.Errorf("%w: depth %d, %d rects", errDepthMismatch, r.Depth, len(r.Rects))
	}
	for i, rect := range r.Rects {
		if len(rect.Rows) == 0 || len(rect.Cols) == 0 {
			return fmt.Errorf("rect %d: %w", i, errEmptyRect)
		}
		for _, v := range rect.Rows {
			if v < 0 || v >= r.Rows {
				return fmt.Errorf("rect %d row %d: %w", i, v, errIndexRange)
			}
		}
		for _, v := range rect.Cols {
			if v < 0 || v >= r.Cols {
				return fmt.Errorf("rect %d col %d: %w", i, v, errIndexRange)
			}
		}
	}
	return nil
}
