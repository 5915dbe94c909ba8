package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type, and
// returns it for comparison.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %T: %v\n%s", v, err, data)
	}
	return out
}

// TestRoundTripEveryWireType pins the wire schema: every request/response
// type must survive marshal→unmarshal unchanged. The gateway re-encodes
// requests and decodes responses on the client side of this schema, so any
// lossy field here silently corrupts cross-tier traffic.
func TestRoundTripEveryWireType(t *testing.T) {
	fullResult := &ResultJSON{
		Depth:          5,
		Optimal:        true,
		Certificate:    "depth 5 proved by UNSAT at 4",
		RankLB:         4,
		FoolingLB:      5,
		HeuristicDepth: 6,
		Blocks:         2,
		TimedOut:       true,
		Canceled:       true,
		CacheHit:       true,
		SATCalls:       7,
		Conflicts:      1234,
		PackNS:         5000,
		SATNS:          60000,
		Fingerprint:    "abc123",
		Partition: []RectJSON{
			{Rows: []int{0, 2}, Cols: []int{1}},
			{Rows: []int{1}, Cols: []int{0, 3}},
		},
	}
	cases := []struct {
		name string
		v    any
	}{
		{"SolveRequest/matrix", &SolveRequest{Matrix: "101\n011"}},
		{"SolveRequest/rows", &SolveRequest{Rows: [][]int{{1, 0}, {0, 1}}}},
		{"SolveRequest/options", &SolveRequest{
			Matrix: "1",
			Options: &SolveOptions{
				Trials:              40,
				Encoding:            "onehot",
				ConflictBudget:      -1,
				TimeoutMS:           250,
				Heuristic:           true,
				Portfolio:           3,
				PortfolioStrategies: []string{"canonical", "luby"},
				ShareClauses:        true,
			},
		}},
		{"SolveOptions/zero", &SolveOptions{}},
		{"RectJSON", &RectJSON{Rows: []int{0, 1}, Cols: []int{2}}},
		{"RectJSON/empty", &RectJSON{Rows: []int{}, Cols: []int{}}},
		{"ResultJSON/full", fullResult},
		{"ResultJSON/minimal", &ResultJSON{Depth: 0, Partition: []RectJSON{}}},
		{"BatchRequest", &BatchRequest{Requests: []SolveRequest{
			{Matrix: "1"}, {Rows: [][]int{{1}}},
		}}},
		{"BatchItem/result", &BatchItem{Result: fullResult}},
		{"BatchItem/error", &BatchItem{Error: "matrix exceeds size limit"}},
		{"BatchResponse", &BatchResponse{Results: []BatchItem{
			{Result: &ResultJSON{Depth: 1, Partition: []RectJSON{{Rows: []int{0}, Cols: []int{0}}}}},
			{Error: "bad request"},
		}}},
		{"ErrorResponse", &ErrorResponse{Error: "solve queue full, retry later"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := roundTrip(t, tc.v)
			if !reflect.DeepEqual(got, tc.v) {
				t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, tc.v)
			}
		})
	}
}

// TestUnknownFieldTolerance pins the compatibility direction: clients (and
// the gateway, which is a client of its backends) decode responses with
// plain json.Unmarshal, so a newer server adding fields must never break an
// older client.
func TestUnknownFieldTolerance(t *testing.T) {
	cases := []struct {
		name string
		data string
		dst  any
	}{
		{"ResultJSON", `{"depth":2,"optimal":true,"partition":[],"future_field":{"a":[1,2]}}`, &ResultJSON{}},
		{"BatchResponse", `{"results":[{"result":null,"error":"x","retry_hint_ms":50}],"page":1}`, &BatchResponse{}},
		{"ErrorResponse", `{"error":"nope","code":"QUEUE_FULL"}`, &ErrorResponse{}},
		{"SolveRequest", `{"matrix":"1","priority":"high"}`, &SolveRequest{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := json.Unmarshal([]byte(tc.data), tc.dst); err != nil {
				t.Fatalf("unknown fields broke decoding: %v", err)
			}
		})
	}
	var res ResultJSON
	if err := json.Unmarshal([]byte(`{"depth":2,"optimal":true,"partition":[],"x":1}`), &res); err != nil || res.Depth != 2 || !res.Optimal {
		t.Fatalf("known fields lost next to unknown ones: %+v (%v)", res, err)
	}
}

// TestErrorPayloadDecoding pins the error path a gateway relies on: every
// non-2xx body is an ErrorResponse whose message survives the trip.
func TestErrorPayloadDecoding(t *testing.T) {
	for _, msg := range []string{
		"solve queue full, retry later",
		"server draining",
		`wire: unknown encoding "cnf3"`,
		"matrix exceeds size limit",
	} {
		data, err := json.Marshal(ErrorResponse{Error: msg})
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error != msg {
			t.Fatalf("error payload %q did not survive: %+v (%v)", msg, e, err)
		}
	}
	// A batch item error decodes from the same shape.
	var item BatchItem
	if err := json.Unmarshal([]byte(`{"error":"ragged rows"}`), &item); err != nil ||
		item.Error != "ragged rows" || item.Result != nil {
		t.Fatalf("batch error item: %+v (%v)", item, err)
	}
}

func TestParseMatrixForms(t *testing.T) {
	cases := []struct {
		name    string
		req     SolveRequest
		wantErr bool
		rows    int
		cols    int
	}{
		{"matrix form", SolveRequest{Matrix: "101\n011"}, false, 2, 3},
		{"rows form", SolveRequest{Rows: [][]int{{1, 0}, {0, 1}}}, false, 2, 2},
		{"neither", SolveRequest{}, true, 0, 0},
		{"both", SolveRequest{Matrix: "1", Rows: [][]int{{1}}}, true, 0, 0},
		{"ragged rows", SolveRequest{Rows: [][]int{{1, 0}, {1}}}, true, 0, 0},
		{"non-binary", SolveRequest{Rows: [][]int{{1, 2}}}, true, 0, 0},
		{"zero rows", SolveRequest{Rows: [][]int{}}, true, 0, 0},
		{"zero cols", SolveRequest{Rows: [][]int{{}, {}}}, true, 0, 0},
		{"zero cols text", SolveRequest{Matrix: ","}, true, 0, 0},
		{"zero cols text multi", SolveRequest{Matrix: " , \n , "}, true, 0, 0},
		{"bad chars", SolveRequest{Matrix: "10\n2x"}, true, 0, 0},
		{"empty matrix string ragged", SolveRequest{Matrix: "10\n1"}, true, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.req.ParseMatrix()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("no error for %+v (got %dx%d)", tc.req, m.Rows(), m.Cols())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Rows() != tc.rows || m.Cols() != tc.cols {
				t.Fatalf("parsed %dx%d, want %dx%d", m.Rows(), m.Cols(), tc.rows, tc.cols)
			}
		})
	}
}

func TestApplyValidatesAndOverlays(t *testing.T) {
	base := core.DefaultOptions()
	opts, timeout, err := (&SolveOptions{
		Trials:              7,
		Encoding:            "onehot",
		TimeoutMS:           1500,
		Portfolio:           1,
		PortfolioStrategies: []string{"luby"},
	}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Packing.Trials != 7 || opts.Strategy != "luby" || timeout.Milliseconds() != 1500 {
		t.Fatalf("overlay lost fields: %+v timeout=%v", opts, timeout)
	}
	// Unknown and retired values are errors, from Apply and Validate alike.
	for _, o := range []*SolveOptions{
		{Encoding: "cnf3"},
		{Encoding: "log"},
		{PortfolioStrategies: []string{"log"}},
		{PortfolioStrategies: []string{"glue4"}},
		{PortfolioStrategies: []string{"canonical", "no-symbreak"}},
		{PortfolioStrategies: []string{"pairwise-amo"}},
		{PortfolioStrategies: []string{"native-amo"}},
		{AMO: "ladder"},
		// Strategy racing's values.
		{Portfolio: 2},
		{ShareClauses: true},
		{PortfolioStrategies: []string{"canonical", "luby"}},
	} {
		if _, _, err := o.Apply(base); err == nil {
			t.Fatalf("%+v accepted by Apply", o)
		}
		if o.Validate() == nil {
			t.Fatalf("%+v accepted by Validate", o)
		}
	}
	if err := (&SolveOptions{Encoding: "onehot", AMO: "pairwise", Portfolio: 1, PortfolioStrategies: []string{"luby"}}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if err := (*SolveOptions)(nil).Validate(); err != nil {
		t.Fatalf("nil options rejected: %v", err)
	}
	if _, _, err := (&SolveOptions{PortfolioStrategies: []string{"bogus"}}).Apply(base); err == nil {
		t.Fatalf("unknown portfolio strategy accepted")
	}
	// nil options: base unchanged.
	opts, timeout, err = (*SolveOptions)(nil).Apply(base)
	if err != nil || timeout != 0 || !reflect.DeepEqual(opts, base) {
		t.Fatalf("nil options changed the base: %+v (%v, %v)", opts, timeout, err)
	}
}

// TestRequestSchemaRejectsUnknownFieldsWhenStrict documents the server-side
// decoding posture: servers decode requests with DisallowUnknownFields, so
// a typo'd option name is a 400, while response decoding stays tolerant
// (TestUnknownFieldTolerance).
func TestRequestSchemaRejectsUnknownFieldsWhenStrict(t *testing.T) {
	dec := json.NewDecoder(strings.NewReader(`{"matrecks":"1"}`))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err == nil {
		t.Fatalf("strict decoding accepted an unknown field")
	}
}

// TestMetaInvertsFromIndexed pins the one wire→core conversion: every
// provenance field FromIndexed writes comes back from Meta, for every
// certificate, while the request-specific counters stay zero.
func TestMetaInvertsFromIndexed(t *testing.T) {
	for _, cert := range []core.Certificate{core.CertNone, core.CertRank, core.CertFooling, core.CertUnsat} {
		want := core.Result{
			Depth: 7, RankLB: 5, FoolingLB: 6, Optimal: cert != core.CertNone, Certificate: cert,
			TimedOut: cert == core.CertNone, Canceled: cert == core.CertNone, Blocks: 2, HeuristicDepth: 8,
		}
		solved := want
		solved.CacheHit, solved.SATCalls, solved.Conflicts = true, 3, 99
		rj := FromIndexed(&solved, "f", make([]RectJSON, 7))
		if got := rj.Meta(); got != want {
			t.Errorf("%v: Meta = %+v, want %+v", cert, got, want)
		}
	}
}
