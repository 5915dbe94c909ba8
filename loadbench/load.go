package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// opResult is what the timed loop records for one op. Decoding and checking
// happen after the clock stops, so client CPU stays off the daemons' cores
// while they are measured.
type opResult struct {
	status  int
	accept  time.Duration // send → response headers (the 202 for a job)
	latency time.Duration // send → complete answer (the done frame for a job)
	body    []byte        // the solve response, or the done frame's data
	sent    int           // request body bytes
	err     error
}

// client owns one keep-alive connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// solve sends one pre-marshalled POST and reads the whole response.
func (c *client) solve(url string, body []byte) opResult {
	t0 := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return opResult{err: err, sent: len(body)}
	}
	accept := time.Since(t0)
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return opResult{status: resp.StatusCode, accept: accept, latency: time.Since(t0), body: b, sent: len(body), err: err}
}

// job submits one pre-marshalled POST /v1/jobs and follows the job's SSE
// stream on the same connection to its done frame.
func (c *client) job(base string, body []byte) opResult {
	t0 := time.Now()
	out := opResult{sent: len(body)}
	resp, err := c.hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	out.accept = time.Since(t0)
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusAccepted {
		out.body, out.err = b, err
		return out
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil || sub.ID == "" {
		out.err = fmt.Errorf("submit answer has no job id: %q", b)
		return out
	}
	ev, err := c.hc.Get(base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	defer ev.Body.Close()
	br := bufio.NewReader(ev.Body)
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			out.err = fmt.Errorf("event stream ended before the done frame: %w", err)
			return out
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")) && event == "done":
			out.latency = time.Since(t0)
			out.body = bytes.TrimSpace(line[len("data: "):])
			io.Copy(io.Discard, ev.Body) // the stream ends after done; keep the connection reusable
			return out
		}
	}
}

// closedLoop sends ops 0..n-1 over one keep-alive connection, each only
// after the previous answer is complete, and returns the results in op
// order plus the wall time. One connection, not one per core: on the
// 2-vCPU shared VM the benchmark was built on, two saturating connections
// let hypervisor steal episodes slow whole runs by 20–40%, while the same
// seeds over one connection ranged a quarter to a third as wide
// (README.md, One connection).
func closedLoop(c *client, n int, do func(c *client, i int) opResult) ([]opResult, time.Duration) {
	out := make([]opResult, n)
	t0 := time.Now()
	for i := range out {
		out[i] = do(c, i)
	}
	return out, time.Since(t0)
}
