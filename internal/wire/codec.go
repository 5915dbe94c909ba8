package wire

// Hand-written codecs for the cache-hit path. Each decoder accepts a strict
// subset of what encoding/json accepts (see internal/fastjson) and hands
// every other body to encoding/json; each encoder writes exactly the bytes
// encoding/json writes. FuzzWireCodecs pins both properties.

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"repro/internal/fastjson"
	"repro/internal/obs"
)

// bufPool holds the buffers request bodies are read into and responses are
// encoded into; both are done with a buffer before the handler returns.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf keeps one oversized body from pinning its buffer in the pool.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// DecodeBody reads a request body whole and decodes it into dst with Decode.
// Callers bound the body (http.MaxBytesReader), so a read error reports an
// over-cap or broken body before any JSON is looked at.
func DecodeBody(r io.Reader, dst any) error {
	bp := getBuf()
	defer putBuf(bp)
	data, err := readAll(r, *bp)
	*bp = data
	if err != nil {
		return err
	}
	return Decode(data, dst)
}

// readAll is io.ReadAll into buf's spare capacity.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Decode decodes one request body strictly: exactly one JSON value, known
// fields only, nothing but whitespace after it. A *SolveRequest in the
// fast-path subset is decoded by hand; everything else goes to
// encoding/json, which writes every error message.
func Decode(data []byte, dst any) error {
	if req, ok := dst.(*SolveRequest); ok {
		if decodeSolveRequest(data, req) {
			return nil
		}
		*req = SolveRequest{}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		// Unmarshal validates the whole body before decoding anything, so
		// it reports the first byte after the value.
		return json.Unmarshal(data, new(json.RawMessage))
	}
	return nil
}

// DecodeResult decodes a backend's ResultJSON response. Unlike Decode it is
// tolerant: unknown fields are ignored (they are how responses evolve).
func DecodeResult(data []byte, dst *ResultJSON) error {
	if decodeResult(data, dst) {
		return nil
	}
	*dst = ResultJSON{}
	return json.Unmarshal(data, dst)
}

// WriteResult writes r as json.NewEncoder(w).Encode(r) does: the JSON
// value and a newline, in one Write.
func WriteResult(w io.Writer, r *ResultJSON) error {
	bp := getBuf()
	defer putBuf(bp)
	*bp = append(AppendResultJSON(*bp, r), '\n')
	_, err := w.Write(*bp)
	return err
}

// decodeSolveRequest is the fast path of Decode for a SolveRequest: matrix
// text, api and options without portfolio_strategies. It reports false on
// anything else, leaving req partly written.
func decodeSolveRequest(data []byte, req *SolveRequest) bool {
	s := fastjson.NewScanner(data)
	var seen fastjson.Seen
	var ok bool
	return s.Object(func(key []byte) bool {
		switch string(key) {
		case "api":
			req.API, ok = s.Int()
			return seen.First(0) && ok
		case "matrix":
			req.Matrix, ok = s.String()
			return seen.First(1) && ok
		case "options":
			req.Options = new(SolveOptions)
			return seen.First(2) && scanOptions(&s, req.Options)
		}
		return false
	}) && s.Done()
}

func scanOptions(s *fastjson.Scanner, o *SolveOptions) bool {
	var seen fastjson.Seen
	var ok bool
	return s.Object(func(key []byte) bool {
		switch string(key) {
		case "trials":
			o.Trials, ok = s.Int()
			return seen.First(0) && ok
		case "encoding":
			o.Encoding, ok = s.String()
			return seen.First(1) && ok
		case "amo":
			o.AMO, ok = s.String()
			return seen.First(2) && ok
		case "conflict_budget":
			o.ConflictBudget, ok = s.Int64()
			return seen.First(3) && ok
		case "timeout_ms":
			o.TimeoutMS, ok = s.Int64()
			return seen.First(4) && ok
		case "heuristic":
			o.Heuristic, ok = s.Bool()
			return seen.First(5) && ok
		case "portfolio":
			o.Portfolio, ok = s.Int()
			return seen.First(6) && ok
		case "share_clauses":
			o.ShareClauses, ok = s.Bool()
			return seen.First(7) && ok
		}
		return false
	})
}

// partScratch collects a decoded partition before it is copied out into
// one backing array.
type partScratch struct {
	ints  []int
	rects []rectSpan
}

// rectSpan locates one rectangle's lists in partScratch.ints; a negative
// start marks a list the body left out.
type rectSpan struct{ rows, rowsEnd, cols, colsEnd int }

var partPool = sync.Pool{New: func() any { return new(partScratch) }}

// decodeResult is the fast path of DecodeResult: every field ResultJSON
// has. It reports false on any other key, which DecodeResult's fallback
// ignores.
func decodeResult(data []byte, r *ResultJSON) bool {
	s := fastjson.NewScanner(data)
	var seen fastjson.Seen
	var ok bool
	return s.Object(func(key []byte) bool {
		switch string(key) {
		case "api":
			r.API, ok = s.Int()
			return seen.First(0) && ok
		case "depth":
			r.Depth, ok = s.Int()
			return seen.First(1) && ok
		case "optimal":
			r.Optimal, ok = s.Bool()
			return seen.First(2) && ok
		case "certificate":
			r.Certificate, ok = s.String()
			return seen.First(3) && ok
		case "rank_lb":
			r.RankLB, ok = s.Int()
			return seen.First(4) && ok
		case "fooling_lb":
			r.FoolingLB, ok = s.Int()
			return seen.First(5) && ok
		case "heuristic_depth":
			r.HeuristicDepth, ok = s.Int()
			return seen.First(6) && ok
		case "blocks":
			r.Blocks, ok = s.Int()
			return seen.First(7) && ok
		case "timed_out":
			r.TimedOut, ok = s.Bool()
			return seen.First(8) && ok
		case "canceled":
			r.Canceled, ok = s.Bool()
			return seen.First(9) && ok
		case "cache_hit":
			r.CacheHit, ok = s.Bool()
			return seen.First(10) && ok
		case "sat_calls":
			r.SATCalls, ok = s.Int()
			return seen.First(11) && ok
		case "conflicts":
			r.Conflicts, ok = s.Int64()
			return seen.First(12) && ok
		case "pack_ns":
			r.PackNS, ok = s.Int64()
			return seen.First(13) && ok
		case "sat_ns":
			r.SATNS, ok = s.Int64()
			return seen.First(14) && ok
		case "fingerprint":
			r.Fingerprint, ok = s.String()
			return seen.First(15) && ok
		case "trace":
			r.Trace, ok = obs.ScanTraceJSON(&s)
			return seen.First(16) && ok
		case "partition":
			r.Partition, ok = scanPartition(&s)
			return seen.First(17) && ok
		}
		return false
	}) && s.Done()
}

// scanPartition decodes a partition into one []RectJSON whose index lists
// share one backing array.
func scanPartition(s *fastjson.Scanner) ([]RectJSON, bool) {
	sc := partPool.Get().(*partScratch)
	defer func() {
		if cap(sc.ints) <= maxPooledBuf {
			partPool.Put(sc)
		}
	}()
	sc.ints, sc.rects = sc.ints[:0], sc.rects[:0]
	ok := s.Array(func() bool {
		sp := rectSpan{rows: -1, cols: -1}
		var seen fastjson.Seen
		ok := s.Object(func(key []byte) bool {
			var ok bool
			start := len(sc.ints)
			switch string(key) {
			case "rows":
				sc.ints, ok = s.Ints(sc.ints)
				sp.rows, sp.rowsEnd = start, len(sc.ints)
				return seen.First(0) && ok
			case "cols":
				sc.ints, ok = s.Ints(sc.ints)
				sp.cols, sp.colsEnd = start, len(sc.ints)
				return seen.First(1) && ok
			}
			return false
		})
		sc.rects = append(sc.rects, sp)
		return ok
	})
	if !ok {
		return nil, false
	}
	ints := make([]int, len(sc.ints))
	copy(ints, sc.ints)
	out := make([]RectJSON, len(sc.rects))
	for k, sp := range sc.rects {
		if sp.rows >= 0 {
			out[k].Rows = ints[sp.rows:sp.rowsEnd:sp.rowsEnd]
		}
		if sp.cols >= 0 {
			out[k].Cols = ints[sp.cols:sp.colsEnd:sp.colsEnd]
		}
	}
	return out, true
}

// AppendResultJSON appends json.Marshal's encoding of r.
func AppendResultJSON(dst []byte, r *ResultJSON) []byte {
	dst = append(dst, '{')
	if r.API != 0 {
		dst = strconv.AppendInt(fastjson.Key(dst, "api"), int64(r.API), 10)
	}
	dst = strconv.AppendInt(fastjson.Key(dst, "depth"), int64(r.Depth), 10)
	dst = strconv.AppendBool(fastjson.Key(dst, "optimal"), r.Optimal)
	dst = fastjson.AppendString(fastjson.Key(dst, "certificate"), r.Certificate)
	dst = strconv.AppendInt(fastjson.Key(dst, "rank_lb"), int64(r.RankLB), 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "fooling_lb"), int64(r.FoolingLB), 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "heuristic_depth"), int64(r.HeuristicDepth), 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "blocks"), int64(r.Blocks), 10)
	if r.TimedOut {
		dst = strconv.AppendBool(fastjson.Key(dst, "timed_out"), true)
	}
	if r.Canceled {
		dst = strconv.AppendBool(fastjson.Key(dst, "canceled"), true)
	}
	dst = strconv.AppendBool(fastjson.Key(dst, "cache_hit"), r.CacheHit)
	dst = strconv.AppendInt(fastjson.Key(dst, "sat_calls"), int64(r.SATCalls), 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "conflicts"), r.Conflicts, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "pack_ns"), r.PackNS, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "sat_ns"), r.SATNS, 10)
	if r.Fingerprint != "" {
		dst = fastjson.AppendString(fastjson.Key(dst, "fingerprint"), r.Fingerprint)
	}
	if r.Trace != nil {
		dst = obs.AppendTraceJSON(fastjson.Key(dst, "trace"), r.Trace)
	}
	dst = fastjson.Key(dst, "partition")
	if r.Partition == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Partition {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"rows":`...)
			dst = fastjson.AppendInts(dst, r.Partition[i].Rows)
			dst = append(dst, `,"cols":`...)
			dst = fastjson.AppendInts(dst, r.Partition[i].Cols)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendSolveRequest appends json.Marshal's encoding of r — the body the
// gateway forwards to a shard.
func AppendSolveRequest(dst []byte, r *SolveRequest) []byte {
	dst = append(dst, '{')
	if r.API != 0 {
		dst = strconv.AppendInt(fastjson.Key(dst, "api"), int64(r.API), 10)
	}
	if r.Matrix != "" {
		dst = fastjson.AppendString(fastjson.Key(dst, "matrix"), r.Matrix)
	}
	if len(r.Rows) > 0 {
		dst = append(fastjson.Key(dst, "rows"), '[')
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = fastjson.AppendInts(dst, row)
		}
		dst = append(dst, ']')
	}
	if o := r.Options; o != nil {
		dst = append(fastjson.Key(dst, "options"), '{')
		if o.Trials != 0 {
			dst = strconv.AppendInt(fastjson.Key(dst, "trials"), int64(o.Trials), 10)
		}
		if o.Encoding != "" {
			dst = fastjson.AppendString(fastjson.Key(dst, "encoding"), o.Encoding)
		}
		if o.AMO != "" {
			dst = fastjson.AppendString(fastjson.Key(dst, "amo"), o.AMO)
		}
		if o.ConflictBudget != 0 {
			dst = strconv.AppendInt(fastjson.Key(dst, "conflict_budget"), o.ConflictBudget, 10)
		}
		if o.TimeoutMS != 0 {
			dst = strconv.AppendInt(fastjson.Key(dst, "timeout_ms"), o.TimeoutMS, 10)
		}
		if o.Heuristic {
			dst = strconv.AppendBool(fastjson.Key(dst, "heuristic"), true)
		}
		if o.Portfolio != 0 {
			dst = strconv.AppendInt(fastjson.Key(dst, "portfolio"), int64(o.Portfolio), 10)
		}
		if len(o.PortfolioStrategies) > 0 {
			dst = fastjson.AppendStrings(fastjson.Key(dst, "portfolio_strategies"), o.PortfolioStrategies)
		}
		if o.ShareClauses {
			dst = strconv.AppendBool(fastjson.Key(dst, "share_clauses"), true)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}
