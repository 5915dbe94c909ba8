package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed by
// runEbmf, so flag handling is tested through the real entry point.
func TestMain(m *testing.M) {
	if os.Getenv("EBMF_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runEbmf re-executes the test binary as ebmf with args and stdin, and
// returns the exit code and stderr.
func runEbmf(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EBMF_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), stderr.String()
}

const fig1b = "101100\n010011\n101010\n010101\n111000\n000111\n"

// TestFlagErrors: a flag the chosen mode cannot honour, a retired racing
// flag and a strategy list are flag errors (exit 1 naming the flag), never
// silently dropped. The -server cases need no server: the check runs before
// any request.
func TestFlagErrors(t *testing.T) {
	const srv = "http://127.0.0.1:1"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"fooling with server", []string{"-server", srv, "-fooling", "5"}, "-fooling"},
		{"no-inprocess with server", []string{"-server", srv, "-no-inprocess"}, "-no-inprocess"},
		{"trace with server", []string{"-server", srv, "-trace"}, "-trace"},
		{"trace-json with server", []string{"-server", srv, "-trace-json", "-"}, "-trace-json"},
		{"factors with server", []string{"-server", srv, "-factors"}, "-factors"},
		{"schedule with server", []string{"-server", srv, "-schedule"}, "-schedule"},
		{"schedule-json with server", []string{"-server", srv, "-schedule-json", "-"}, "-schedule-json"},
		{"api-key without server", []string{"-api-key", "k"}, "-api-key"},
		{"degrade without server", []string{"-degrade"}, "-degrade"},
		{"callback without server", []string{"-callback", "http://127.0.0.1:1/hook"}, "-callback"},
		{"retired portfolio", []string{"-portfolio", "3"}, "-portfolio"},
		{"retired share-clauses", []string{"-share-clauses"}, "-share-clauses"},
		{"strategy list", []string{"-strategies", "canonical,luby"}, "-strategies"},
		{"strategy list with server", []string{"-server", srv, "-strategies", "luby,destructive"}, "-strategies"},
		{"unknown strategy", []string{"-strategies", "nope"}, "nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runEbmf(t, fig1b, tc.args...)
			if code != exitError || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit %d naming %s", code, stderr, exitError, tc.want)
			}
		})
	}
}

// TestSingleStrategySolves: one named strategy runs solo on a local solve
// and proves Fig. 1b's optimum by SAT (the fooling bound is off).
func TestSingleStrategySolves(t *testing.T) {
	code, stdout, stderr := runEbmf(t, fig1b, "-strategies", "luby", "-fooling", "0", "-q")
	if code != exitOptimal || strings.TrimSpace(stdout) != "5" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and depth 5", code, stdout, stderr)
	}
}

// TestServerBadEventFramePolls: an event frame the CLI cannot decode is a
// dropped stream, like a stream that ends early — the job is polled to its
// terminal snapshot instead of the run failing.
func TestServerBadEventFramePolls(t *testing.T) {
	done := `{"api":1,"id":"j-1","state":"done","tenant":"default","result":` +
		`{"depth":5,"optimal":true,"certificate":"fooling-set","partition":[]}}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"api":1,"id":"j-1","state":"queued","tenant":"default"}`)
		case "/v1/jobs/j-1/events":
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, "id: 1\nevent: status\ndata: {\"api\":1,\"seq\":1,\"state\n\n")
		case "/v1/jobs/j-1":
			io.WriteString(w, done)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	code, stdout, stderr := runEbmf(t, fig1b, "-server", ts.URL, "-q")
	if code != exitOptimal || strings.TrimSpace(stdout) != "5" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and depth 5", code, stdout, stderr)
	}
}
