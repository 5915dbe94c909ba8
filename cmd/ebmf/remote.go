package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	ebmf "repro"
	"repro/internal/wire"
)

// runRemote submits the matrix as an async job to a running ebmfd or ebmfgw,
// streams the anytime progress events to stderr, and prints the terminal
// result with the same output flags and exit-code contract as a local solve:
// 0 proved optimal, 2 valid-but-unproven (budget exhausted, degraded or
// canceled with a partial answer), 1 on error.
//
// The job is submitted with cancel_on_disconnect, so killing the CLI cancels
// the remote solve instead of leaving it running server-side.
func runRemote(serverURL, apiKey string, degrade bool, callback string, m *ebmf.Matrix,
	opts *wire.SolveOptions, jsonOut, quiet bool) int {
	serverURL = strings.TrimRight(serverURL, "/")
	req := wire.JobRequest{
		API:                wire.V1,
		Matrix:             m.String(),
		Options:            opts,
		CancelOnDisconnect: callback == "", // a webhook outlives the CLI; don't cancel its job
		Degrade:            degrade,
		CallbackURL:        callback,
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		return fail(err)
	}
	resp, err := call(http.MethodPost, serverURL+"/v1/jobs", apiKey, payload)
	if err != nil {
		return fail(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("submit: %s: %s", resp.Status, errorMessage(body)))
	}
	var j wire.JobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		return fail(fmt.Errorf("submit: bad job response: %v", err))
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "ebmf: job %s %s (tenant %s)\n", j.ID, j.State, j.Tenant)
	}

	final, err := streamJob(serverURL, apiKey, j.ID, quiet)
	if err != nil {
		return fail(err)
	}
	return printRemote(m, final, jsonOut, quiet)
}

// maxEventFrame caps one event frame read from the server.
const maxEventFrame = 1 << 20

// streamJob follows GET /v1/jobs/{id}/events until the terminal frame,
// echoing progress to stderr. A stream that ends, tears or carries a frame
// it cannot decode before the terminal frame is a dropped stream: the job
// itself is still running server-side, so it is polled out instead.
func streamJob(serverURL, apiKey, id string, quiet bool) (*wire.JobJSON, error) {
	resp, err := call(http.MethodGet, serverURL+"/v1/jobs/"+id+"/events", apiKey, nil)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("events: %s: %s", resp.Status, errorMessage(body))
	}
	rd := wire.NewEventReader(resp.Body, maxEventFrame)
	for {
		f, err := rd.Next()
		var ev wire.JobEvent
		if err == nil {
			err = json.Unmarshal(f.Data, &ev)
		}
		if err != nil {
			if !quiet {
				fmt.Fprintf(os.Stderr, "ebmf: event stream dropped (%v), polling\n", err)
			}
			return pollJob(serverURL, apiKey, id)
		}
		switch {
		case ev.Job != nil:
			return ev.Job, nil
		case ev.Progress != nil && !quiet:
			p := ev.Progress
			fmt.Fprintf(os.Stderr, "ebmf: block %d bound=%d lb=%d conflicts=%d\n",
				p.Block, p.Bound, p.LB, p.Conflicts)
		case !quiet:
			fmt.Fprintf(os.Stderr, "ebmf: job %s\n", ev.State)
		}
	}
}

func pollJob(serverURL, apiKey, id string) (*wire.JobJSON, error) {
	for {
		resp, err := call(http.MethodGet, serverURL+"/v1/jobs/"+id, apiKey, nil)
		if err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("poll: %s: %s", resp.Status, errorMessage(body))
		}
		var j wire.JobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			return nil, fmt.Errorf("poll: bad job response: %v", err)
		}
		if wire.JobTerminal(j.State) {
			return &j, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// call sends one request to the server, authenticated when apiKey is set;
// a non-nil body is sent as JSON.
func call(method, url, apiKey string, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+apiKey)
	}
	return http.DefaultClient.Do(hreq)
}

// printRemote renders the terminal job under the local output flags and maps
// its state to the CLI exit-code contract.
func printRemote(m *ebmf.Matrix, j *wire.JobJSON, jsonOut, quiet bool) int {
	if j.State == wire.JobFailed {
		return fail(fmt.Errorf("job failed: %s", j.Error))
	}
	if j.Result == nil {
		return fail(fmt.Errorf("job %s without a result", j.State))
	}
	res := j.Result
	switch {
	case jsonOut:
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return fail(err)
		}
	case quiet:
		fmt.Println(res.Depth)
	default:
		fmt.Printf("matrix: %d×%d, %d ones (occupancy %.1f%%)\n",
			m.Rows(), m.Cols(), m.Ones(), 100*m.Occupancy())
		fmt.Printf("depth:  %d rectangles", res.Depth)
		if res.Optimal {
			fmt.Printf("  (optimal, certificate: %s)", res.Certificate)
		} else {
			lb := res.RankLB
			if res.FoolingLB > lb {
				lb = res.FoolingLB
			}
			fmt.Printf("  (upper bound; lower bound %d)", lb)
		}
		fmt.Println()
		state := j.State
		if j.Degraded {
			state += ", degraded to heuristic under load"
		}
		fmt.Printf("job:    %s (%s; queued %dms, ran %dms, cache_hit=%v)\n",
			j.ID, state, j.QueuedMS, j.RunMS, res.CacheHit)
	}
	if !res.Optimal {
		return exitNonOptimal
	}
	return exitOptimal
}

// errorMessage extracts the message from a wire error body, falling back to
// the raw bytes.
func errorMessage(body []byte) string {
	var e wire.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		if e.Code != "" {
			return e.Code + ": " + e.Error
		}
		return e.Error
	}
	return strings.TrimSpace(string(body))
}
