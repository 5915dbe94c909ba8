package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/fastjson"
	"repro/internal/obs"
)

// FuzzWireCodecs is the differential fuzzer for the hand-written hit-path
// codecs. Whenever a fast decoder accepts a body, encoding/json must accept
// it too and yield a reflect.DeepEqual value; Decode must answer exactly as
// the strict encoding/json decode does, error messages included; and every
// encoder must write exactly encoding/json's bytes, both for the values
// encoding/json decodes from the body and for values carrying the raw body
// as strings (invalid UTF-8, HTML characters, control bytes). Runs nightly
// beside FuzzWireDecode (nightly.yml).
func FuzzWireCodecs(f *testing.F) {
	for _, seed := range []string{
		// FuzzWireDecode's seeds.
		`{}`,
		`{"matrix":"101\n011"}`,
		`{"matrix":"101100\n010011\n101010\n010101\n111000\n000111"}`,
		`{"rows":[[1,0],[0,1]]}`,
		`{"rows":[]}`,
		`{"rows":[[]]}`,
		`{"rows":[[],[]]}`,
		`{"rows":[[1,0],[1]]}`,
		`{"rows":[[1,2,3]]}`,
		`{"matrix":"1","rows":[[1]]}`,
		`{"matrix":"10\n2x"}`,
		`{"matrix":"1","options":{"encoding":"log","timeout_ms":5}}`,
		`{"matrix":"1","options":{"encoding":"cnf3"}}`,
		`{"matrix":"1","options":{"portfolio_strategies":["bogus"]}}`,
		`{"matrecks":"1"}`,
		`{"requests":[{"matrix":"1"},{"rows":[[]]},{}]}`,
		`{"requests":[]}`,
		`{"matrix":"` + strings.Repeat("1", 300) + `"}`,
		`not json`,
		`null`,
		`"str"`,
		`[1,2,3]`,
		"\xff\xfe\x00",
		// The subset's edges.
		`{"matrix":"101\n011"} trailing junk`,
		`{"matrix":"101\n011"}{"matrix":"1"}`,
		`{"matrix":"1","matrix":"0"}`,
		`{"Matrix":"1"}`,
		`{"matrix":"\u0031"}`,
		`{"api":1,"matrix":"1\/0<&>","options":{"trials":-0,"heuristic":true,"conflict_budget":999999999999999999}}`,
		`{"api":1.0,"matrix":"1"}`,
		`{"depth":1,"partition":[{"rows":[],"cols":null}],"portfolio":{"wins":{"a":1}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(tracedResponse(f))
	f.Add(deepResult(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		var fast ResultJSON
		if decodeResult(data, &fast) {
			var ref ResultJSON
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("fast ResultJSON decode accepted what encoding/json rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(&fast, &ref) {
				t.Fatalf("ResultJSON decode differs for %q:\nfast %#v\n ref %#v", data, &fast, &ref)
			}
		}
		s := fastjson.NewScanner(data)
		if tj, ok := obs.ScanTraceJSON(&s); ok && s.Done() {
			var ref obs.TraceJSON
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("fast TraceJSON decode accepted what encoding/json rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(tj, &ref) {
				t.Fatalf("TraceJSON decode differs for %q:\nfast %#v\n ref %#v", data, tj, &ref)
			}
		}

		// Encoders, on what encoding/json decodes from the body ...
		var res ResultJSON
		if json.Unmarshal(data, &res) == nil {
			checkEncode(t, "ResultJSON", AppendResultJSON(nil, &res), &res)
		}
		var req SolveRequest
		if json.Unmarshal(data, &req) == nil {
			checkEncode(t, "SolveRequest", AppendSolveRequest(nil, &req), &req)
		}
		var tr obs.TraceJSON
		if json.Unmarshal(data, &tr) == nil {
			checkEncode(t, "TraceJSON", obs.AppendTraceJSON(nil, &tr), &tr)
		}
		// ... and on the raw body as strings.
		str := string(data)
		raw := &ResultJSON{
			Certificate: str,
			Fingerprint: str,
			Trace: &obs.TraceJSON{TraceID: str, Spans: []obs.SpanJSON{
				{ID: str, Parent: str, Name: str, Attrs: map[string]string{str: str, "k": ""}},
			}},
			Partition: []RectJSON{{Rows: []int{len(data)}}},
		}
		checkEncode(t, "ResultJSON(raw)", AppendResultJSON(nil, raw), raw)
		rawReq := &SolveRequest{Matrix: str, Options: &SolveOptions{Encoding: str, PortfolioStrategies: []string{str}}}
		checkEncode(t, "SolveRequest(raw)", AppendSolveRequest(nil, rawReq), rawReq)
	})
}

// checkDecode holds Decode to the strict encoding/json decode: the same
// value on success, the same message on failure.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var ref SolveRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	refErr := dec.Decode(&ref)
	if refErr == nil && !json.Valid(data) {
		refErr = json.Unmarshal(data, new(json.RawMessage))
	}
	var fast SolveRequest
	fastOK := decodeSolveRequest(data, &fast)
	if fastOK && refErr != nil {
		t.Fatalf("fast SolveRequest decode accepted what encoding/json rejects (%v): %q", refErr, data)
	}
	if fastOK && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("SolveRequest decode differs for %q:\nfast %#v\n ref %#v", data, fast, ref)
	}
	var got SolveRequest
	err := Decode(data, &got)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("Decode(%q) = %v, encoding/json says %v", data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("Decode(%q) = %#v, encoding/json says %#v", data, got, ref)
	}
}

func checkEncode(t *testing.T, what string, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: encoding/json: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s encoding differs:\n got %s\nwant %s", what, got, want)
	}
}

// tracedResponse is what a backend answers a traced proxied hit: a result
// carrying its span tree.
func tracedResponse(tb testing.TB) []byte {
	tr := obs.New(obs.Config{})
	ctx, root := tr.StartTrace(context.Background(), "solve", &obs.Remote{TraceID: strings.Repeat("ab", 16), ParentID: 7})
	_, sp := obs.StartSpan(ctx, "queue")
	sp.End()
	root.SetAttr("fingerprint", "f00d")
	root.SetAttr("cache_hit", "true")
	root.SetAttrInt("depth", 5)
	res := resultFor(tb, bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111"))
	res.CacheHit = true
	res.Trace = root.Finish().JSON()
	data, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// deepResult is the response for a sparse 80×80 pattern of depth 43.
func deepResult(tb testing.TB) []byte {
	data, err := json.Marshal(resultFor(tb, bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func resultFor(tb testing.TB, m *bitmat.Matrix) *ResultJSON {
	res, err := core.Solve(m, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return FromResult(res, bitmat.ComputeFingerprint(m).Hash)
}

// TestHitBodiesTakeTheFastPath pins that the bodies of the cache-hit path
// never reach encoding/json: a client or gateway solve request, a traced
// backend response and a deep result. FuzzWireCodecs would pass just as
// well if every body fell back.
func TestHitBodiesTakeTheFastPath(t *testing.T) {
	req := `{"api":1,"matrix":"0101\n1010","options":{"conflict_budget":2000000,"timeout_ms":50}}`
	if !decodeSolveRequest([]byte(req), new(SolveRequest)) {
		t.Errorf("solve request fell back: %s", req)
	}
	for name, body := range map[string][]byte{"traced": tracedResponse(t), "deep": deepResult(t)} {
		var res ResultJSON
		if !decodeResult(body, &res) {
			t.Errorf("%s response fell back: %s", name, body)
		}
	}
}

// TestCodecsConcurrent runs the pooled-buffer codecs from several goroutines
// at once; every result must equal the one encoding/json gives alone.
func TestCodecsConcurrent(t *testing.T) {
	bodies := [][]byte{tracedResponse(t), deepResult(t)}
	want := make([]*ResultJSON, len(bodies))
	wantOut := make([][]byte, len(bodies))
	for i, b := range bodies {
		want[i] = new(ResultJSON)
		if err := json.Unmarshal(b, want[i]); err != nil {
			t.Fatal(err)
		}
		wantOut[i] = append(bytes.Clone(b), '\n')
	}
	reqs := []string{`{"matrix":"101\n011"}`, `{"matrix":"1","options":{"trials":3}}`, `{"rows":[[1]]}`}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (k + w) % len(bodies)
				var res ResultJSON
				if err := DecodeResult(bodies[i], &res); err != nil || !reflect.DeepEqual(&res, want[i]) {
					t.Errorf("DecodeResult(body %d) = %v, differs from encoding/json", i, err)
				}
				var out bytes.Buffer
				if err := WriteResult(&out, &res); err != nil || !bytes.Equal(out.Bytes(), wantOut[i]) {
					t.Errorf("WriteResult(body %d) = %v, differs from encoding/json", i, err)
				}
				var req, ref SolveRequest
				body := reqs[(k+w)%len(reqs)]
				if err := DecodeBody(strings.NewReader(body), &req); err != nil || json.Unmarshal([]byte(body), &ref) != nil || !reflect.DeepEqual(req, ref) {
					t.Errorf("DecodeBody(%s) = %+v (%v), want %+v", body, req, err, ref)
				}
			}
		}(w)
	}
	wg.Wait()
}
