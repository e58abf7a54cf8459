package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client is the Go binding for the job API — what the loadgen, the
// canary, and tests drive. Typed admission failures come back as the
// same sentinel errors the server raises (errors.Is(err, ErrQueueFull)
// works across the wire), mapped from the stable ErrorView codes.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7070".
	BaseURL string
	// Name is the client identity sent with submissions (per-client cap key).
	Name string
	// HTTPClient defaults to a client with a 60s timeout.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 60 * time.Second}
}

// apiError reconstructs the typed sentinel from a non-2xx response.
func apiError(status int, body []byte) error {
	var ev ErrorView
	if err := json.Unmarshal(body, &ev); err != nil || ev.Error == "" {
		return fmt.Errorf("server: HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	switch ev.Code {
	case "queue_full":
		return fmt.Errorf("%w: %s", ErrQueueFull, ev.Error)
	case "client_limit":
		return fmt.Errorf("%w: %s", ErrClientLimit, ev.Error)
	case "stopped":
		return fmt.Errorf("%w: %s", ErrStopped, ev.Error)
	case "unknown_job":
		return fmt.Errorf("%w: %s", ErrUnknownJob, ev.Error)
	}
	return fmt.Errorf("server: HTTP %d (%s): %s", status, ev.Code, ev.Error)
}

func (c *Client) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp.StatusCode, rb)
	}
	if out != nil {
		return json.Unmarshal(rb, out)
	}
	return nil
}

// Submit posts a scenario spec and returns the accepted job view.
func (c *Client) Submit(spec string, priority Priority) (JobView, error) {
	var jv JobView
	err := c.do("POST", "/api/v1/jobs", SubmitRequest{
		Scenario: spec, Priority: priority.String(), Client: c.Name,
	}, &jv)
	return jv, err
}

// Status fetches a job snapshot.
func (c *Client) Status(id string) (JobView, error) {
	var jv JobView
	err := c.do("GET", "/api/v1/jobs/"+id, nil, &jv)
	return jv, err
}

// Jobs lists every job the server knows.
func (c *Client) Jobs() ([]JobView, error) {
	var out []JobView
	err := c.do("GET", "/api/v1/jobs", nil, &out)
	return out, err
}

// Result blocks until the job is terminal and returns the final view
// (Output holds the merged table for done jobs).
func (c *Client) Result(id string) (JobView, error) {
	var jv JobView
	err := c.do("GET", "/api/v1/jobs/"+id+"/result", nil, &jv)
	return jv, err
}

// StreamShards consumes the chunked shard stream, invoking fn per
// update until the stream ends (job terminal) or fn returns an error.
func (c *Client) StreamShards(id string, fn func(ShardUpdate) error) error {
	resp, err := c.http().Get(c.BaseURL + "/api/v1/jobs/" + id + "/shards")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		return apiError(resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var u ShardUpdate
		if err := json.Unmarshal(line, &u); err != nil {
			return fmt.Errorf("server: shard stream: %w", err)
		}
		if err := fn(u); err != nil {
			return err
		}
	}
	return sc.Err()
}
