package obs

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestLogRequestsFlushesAndLogs pins the middleware both daemons share: a
// handler behind it can flush through http.ResponseController (the SSE job
// streams depend on that), and each request logs one line with its status.
func TestLogRequestsFlushesAndLogs(t *testing.T) {
	var buf bytes.Buffer
	h := LogRequests(log.New(&buf, "", 0), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through the middleware: %v", err)
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/x/events", nil))
	if !rec.Flushed {
		t.Error("the underlying writer was not flushed")
	}
	if got := buf.String(); !strings.HasPrefix(got, "GET /v1/jobs/x/events 418 ") {
		t.Errorf("log line %q", got)
	}
}

// TestStartRequestHonoursTraceparent pins that an incoming traceparent makes
// the request's trace remote (its spans go back upstream) under the
// upstream trace ID, while a request without one starts a local trace.
func TestStartRequestHonoursTraceparent(t *testing.T) {
	tr := New(Config{})
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	r.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	_, root := tr.StartRequest(r, "solve")
	if !root.IsRemote() || root.trace.traceID != traceID {
		t.Fatalf("traced request: remote=%v trace %q", root.IsRemote(), root.trace.traceID)
	}
	_, local := tr.StartRequest(httptest.NewRequest(http.MethodPost, "/v1/solve", nil), "solve")
	if local == nil || local.IsRemote() {
		t.Fatalf("untraced request: span %v", local)
	}
}
