// Package client is the thin typed client for a scenariod daemon: it
// marshals the wire structs from internal/serve, posts them, and
// decodes responses — no retries, no caching, no cleverness. Anything
// smarter (deduplication, admission, checkpoint sharing) lives
// server-side, which is the point of having a daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
)

// Client talks to one scenariod daemon.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTP is the transport; nil selects http.DefaultClient. Share one
	// across goroutines — connection reuse matters under load.
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// StatusError is a non-2xx daemon reply: the HTTP status plus the
// decoded ErrorResponse message.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("scenariod: HTTP %d: %s", e.Status, e.Message)
}

// IsQueueFull reports the 503 backpressure reply — the one status a
// load-shedding caller should treat as "retry later", not "broken".
func IsQueueFull(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == http.StatusServiceUnavailable
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post round-trips one JSON request/response pair.
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encode %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return decodeError(hresp)
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

func decodeError(hresp *http.Response) error {
	var er serve.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&er); err != nil || er.Error == "" {
		er.Error = hresp.Status
	}
	return &StatusError{Status: hresp.StatusCode, Message: er.Error}
}

// Run submits one simulator run and waits for its Stats.
func (c *Client) Run(ctx context.Context, req serve.RunRequest) (serve.RunResponse, error) {
	var resp serve.RunResponse
	err := c.post(ctx, "/v1/run", req, &resp)
	return resp, err
}

// Measure submits one full measure evaluation and waits for its record.
func (c *Client) Measure(ctx context.Context, req serve.MeasureRequest) (serve.MeasureResponse, error) {
	var resp serve.MeasureResponse
	err := c.post(ctx, "/v1/measure", req, &resp)
	return resp, err
}

// Static asks for an analytical fast-path prediction.
func (c *Client) Static(ctx context.Context, req serve.StaticRequest) (serve.StaticResponse, error) {
	var resp serve.StaticResponse
	err := c.post(ctx, "/v1/static", req, &resp)
	return resp, err
}

// Metrics fetches the daemon's three-layer metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return snap, fmt.Errorf("client: /metrics: %w", err)
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return snap, fmt.Errorf("client: /metrics: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return snap, decodeError(hresp)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("client: decode /metrics: %w", err)
	}
	return snap, nil
}

// Health reports whether the daemon answers /healthz.
func (c *Client) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("client: /healthz: %w", err)
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("client: /healthz: %w", err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return &StatusError{Status: hresp.StatusCode, Message: "healthz failed"}
	}
	return nil
}
