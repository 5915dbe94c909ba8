package obs

// Hand-written codec for the TraceJSON that every proxied hit carries from
// backend to gateway, used by internal/wire's ResultJSON codec. The encoder
// writes exactly encoding/json's bytes; the decoder accepts a strict subset
// (no progress samples) and the caller falls back to encoding/json on
// anything else.

import (
	"slices"
	"strconv"

	"repro/internal/fastjson"
)

// AppendTraceJSON appends json.Marshal's encoding of t.
func AppendTraceJSON(dst []byte, t *TraceJSON) []byte {
	dst = append(dst, '{')
	dst = fastjson.AppendString(fastjson.Key(dst, "trace_id"), t.TraceID)
	dst = fastjson.AppendString(fastjson.Key(dst, "name"), t.Name)
	dst = strconv.AppendInt(fastjson.Key(dst, "start_us"), t.StartUS, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "duration_us"), t.DurationUS, 10)
	dst = fastjson.Key(dst, "spans")
	if t.Spans == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Spans {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendSpanJSON(dst, &t.Spans[i])
		}
		dst = append(dst, ']')
	}
	if len(t.Progress) > 0 {
		dst = append(fastjson.Key(dst, "progress"), '[')
		for i := range t.Progress {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendProgressJSON(dst, &t.Progress[i])
		}
		dst = append(dst, ']')
	}
	if t.ProgressDropped != 0 {
		dst = strconv.AppendInt(fastjson.Key(dst, "progress_dropped"), t.ProgressDropped, 10)
	}
	return append(dst, '}')
}

func appendSpanJSON(dst []byte, sp *SpanJSON) []byte {
	dst = append(dst, '{')
	dst = fastjson.AppendString(fastjson.Key(dst, "id"), sp.ID)
	if sp.Parent != "" {
		dst = fastjson.AppendString(fastjson.Key(dst, "parent"), sp.Parent)
	}
	dst = fastjson.AppendString(fastjson.Key(dst, "name"), sp.Name)
	dst = strconv.AppendInt(fastjson.Key(dst, "start_us"), sp.StartUS, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "dur_us"), sp.DurUS, 10)
	if len(sp.Attrs) > 0 {
		var buf [16]string
		keys := buf[:0]
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(fastjson.Key(dst, "attrs"), '{')
		for _, k := range keys {
			dst = append(fastjson.AppendString(fastjson.Sep(dst), k), ':')
			dst = fastjson.AppendString(dst, sp.Attrs[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

func appendProgressJSON(dst []byte, p *ProgressJSON) []byte {
	dst = append(dst, '{')
	dst = strconv.AppendInt(fastjson.Key(dst, "t_us"), p.TUS, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "block"), int64(p.Block), 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "bound"), int64(p.Bound), 10)
	if p.LB != 0 {
		dst = strconv.AppendInt(fastjson.Key(dst, "lb"), int64(p.LB), 10)
	}
	dst = strconv.AppendInt(fastjson.Key(dst, "conflicts"), p.Conflicts, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "restarts"), p.Restarts, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "propagations"), p.Propagations, 10)
	dst = strconv.AppendInt(fastjson.Key(dst, "learnts"), int64(p.Learnts), 10)
	return append(dst, '}')
}

// ScanTraceJSON decodes the TraceJSON value at s. It reports false on
// anything outside the scanner's subset and on progress samples, which only
// cold solves carry; the caller then decodes the whole body with
// encoding/json.
func ScanTraceJSON(s *fastjson.Scanner) (*TraceJSON, bool) {
	t := new(TraceJSON)
	var seen fastjson.Seen
	var ok bool
	done := s.Object(func(key []byte) bool {
		switch string(key) {
		case "trace_id":
			t.TraceID, ok = s.String()
			return seen.First(0) && ok
		case "name":
			t.Name, ok = s.String()
			return seen.First(1) && ok
		case "start_us":
			t.StartUS, ok = s.Int64()
			return seen.First(2) && ok
		case "duration_us":
			t.DurationUS, ok = s.Int64()
			return seen.First(3) && ok
		case "spans":
			t.Spans = make([]SpanJSON, 0, 8)
			return seen.First(4) && s.Array(func() bool {
				t.Spans = append(t.Spans, SpanJSON{})
				return scanSpanJSON(s, &t.Spans[len(t.Spans)-1])
			})
		case "progress_dropped":
			t.ProgressDropped, ok = s.Int64()
			return seen.First(5) && ok
		}
		return false
	})
	return t, done
}

func scanSpanJSON(s *fastjson.Scanner, sp *SpanJSON) bool {
	var seen fastjson.Seen
	var ok bool
	return s.Object(func(key []byte) bool {
		switch string(key) {
		case "id":
			sp.ID, ok = s.String()
			return seen.First(0) && ok
		case "parent":
			sp.Parent, ok = s.String()
			return seen.First(1) && ok
		case "name":
			sp.Name, ok = s.String()
			return seen.First(2) && ok
		case "start_us":
			sp.StartUS, ok = s.Int64()
			return seen.First(3) && ok
		case "dur_us":
			sp.DurUS, ok = s.Int64()
			return seen.First(4) && ok
		case "attrs":
			sp.Attrs = make(map[string]string)
			return seen.First(5) && s.Object(func(k []byte) bool {
				v, ok := s.String()
				// encoding/json keeps the last of repeated map keys, and so
				// does this.
				sp.Attrs[string(k)] = v
				return ok
			})
		}
		return false
	})
}
