package obs

// The HTTP edge both daemons share: trace start from an incoming request and
// the request-logging middleware.

import (
	"context"
	"log"
	"net/http"
	"time"
)

// StartRequest begins a trace for one HTTP request, honouring an upstream
// traceparent header (which forces sampling: the upstream tier already
// decided).
func (t *Tracer) StartRequest(r *http.Request, name string) (context.Context, *Span) {
	var remote *Remote
	if rm, ok := ParseTraceparent(r.Header.Get("traceparent")); ok {
		remote = &rm
	}
	return t.StartTrace(r.Context(), name, remote)
}

// LogRequests is the request-logging middleware: one line per request with
// method, path, status and duration.
func LogRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(t0).Round(time.Microsecond))
	})
}

// statusWriter records the response status for LogRequests.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush:
// the SSE job-event streams of both daemons flush through this middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
