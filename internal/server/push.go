package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ErrUnreachable reports that every attempt to reach the server failed at
// the network level; the push can be retried later (cli.ExitNetwork).
var ErrUnreachable = errors.New("dragserved unreachable")

// RejectedError reports a definitive server-side rejection (the server
// answered, retrying the same bytes cannot help).
type RejectedError struct {
	// Status is the HTTP status code.
	Status int
	// Response is the parsed reply body, when it parsed.
	Response *IngestResponse
}

func (e *RejectedError) Error() string {
	msg := fmt.Sprintf("dragserved rejected the upload (HTTP %d)", e.Status)
	if e.Response != nil && e.Response.Error != "" {
		msg += ": " + e.Response.Error
	}
	return msg
}

// PushOptions tune the client's retry loop.
type PushOptions struct {
	// Retries is the number of attempts after the first: 0 makes one
	// attempt, and a negative value counts as 0.
	Retries int
	// Timeout bounds each attempt (default 60s).
	Timeout time.Duration
	// Backoff is the base delay between attempts, doubled each retry with
	// ±50% jitter so synchronized clients spread out (default 250ms).
	Backoff time.Duration
	// MaxDelay caps the exponential growth of a single backoff sleep
	// (default 30s).
	MaxDelay time.Duration
	// MaxElapsed gives up once the retry loop has been running this long,
	// even with retries left — a flapping server must not wedge the
	// client forever (default 5m).
	MaxElapsed time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Token is the tenant bearer token, sent as "Authorization: Bearer"
	// on every attempt. Empty sends no credential (single-tenant
	// servers).
	Token string
	// now, sleep and randInt63n are test seams (fake clock, deterministic
	// jitter).
	now        func() time.Time
	sleep      func(time.Duration)
	randInt63n func(int64) int64
}

func (o PushOptions) withDefaults() PushOptions {
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 30 * time.Second
	}
	if o.MaxElapsed <= 0 {
		o.MaxElapsed = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	if o.randInt63n == nil {
		o.randInt63n = rand.Int63n
	}
	return o
}

// Push uploads one drag log to a dragserved instance. open re-opens the
// log for each attempt (uploads are not seekable once partially sent).
// Network-level failures, 5xx replies and load-shed 429s retry with
// exponential backoff and jitter, capped per-sleep by MaxDelay and
// overall by MaxElapsed; when the server sends Retry-After (it does on
// 429 and 503), that is the floor for the next sleep. After the last
// attempt a network failure wraps ErrUnreachable and a server rejection
// is a *RejectedError. A 422 (damaged log) is also a *RejectedError —
// the server may still have stored the salvaged prefix, reported in the
// response.
func Push(ctx context.Context, serverURL string, open func() (io.ReadCloser, error), opts PushOptions) (*IngestResponse, error) {
	opts = opts.withDefaults()
	url := strings.TrimRight(serverURL, "/") + "/api/v1/runs"

	start := opts.now()
	var lastErr error
	delay := opts.Backoff
	retryAfter := time.Duration(0)
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		if attempt > 0 {
			// ±50% jitter; non-deterministic by design — this is a
			// network pacing decision, not a measured result.
			jittered := delay/2 + time.Duration(opts.randInt63n(int64(delay)+1))
			if jittered < retryAfter {
				// The server told us when to come back; honor it.
				jittered = retryAfter
			}
			if opts.now().Add(jittered).Sub(start) > opts.MaxElapsed {
				return nil, fmt.Errorf("%w: gave up after %v (max elapsed %v): %v",
					ErrUnreachable, opts.now().Sub(start).Round(time.Millisecond), opts.MaxElapsed, lastErr)
			}
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %v", ErrUnreachable, ctx.Err())
			default:
			}
			opts.sleep(jittered)
			delay *= 2
			if delay > opts.MaxDelay {
				delay = opts.MaxDelay
			}
		}
		resp, retry, ra, err := pushOnce(ctx, opts.Client, url, open, opts.Timeout, opts.Token)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		retryAfter = ra
		if !retry {
			return resp, err
		}
	}
	if errors.As(lastErr, new(*RejectedError)) {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w after %d attempts: %v", ErrUnreachable, opts.Retries+1, lastErr)
}

// pushOnce performs one attempt. retry reports whether the failure class
// is worth another try (network faults, 5xx, shed load); retryAfter is
// the server's Retry-After hint, when present.
func pushOnce(ctx context.Context, client *http.Client, url string, open func() (io.ReadCloser, error), timeout time.Duration, token string) (resp *IngestResponse, retry bool, retryAfter time.Duration, err error) {
	body, err := open()
	if err != nil {
		return nil, false, 0, err
	}
	defer body.Close()

	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, body)
	if err != nil {
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}

	httpResp, err := client.Do(req)
	if err != nil {
		return nil, true, 0, err
	}
	defer httpResp.Body.Close()

	var parsed IngestResponse
	data, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if jerr := json.Unmarshal(data, &parsed); jerr == nil {
		resp = &parsed
	}
	retryAfter = parseRetryAfter(httpResp.Header.Get("Retry-After"))

	switch {
	case httpResp.StatusCode == http.StatusOK || httpResp.StatusCode == http.StatusCreated:
		if resp == nil {
			return nil, false, 0, fmt.Errorf("dragserved: unparseable success reply")
		}
		return resp, false, 0, nil
	case httpResp.StatusCode == http.StatusTooManyRequests || httpResp.StatusCode >= 500:
		// Shed load and transient unavailability (429, 503 during
		// recovery/drain, other 5xx) are retryable — that is the whole
		// point of Retry-After.
		return resp, true, retryAfter, &RejectedError{Status: httpResp.StatusCode, Response: resp}
	default:
		return resp, false, 0, &RejectedError{Status: httpResp.StatusCode, Response: resp}
	}
}

// parseRetryAfter reads a Retry-After header: either delay-seconds or an
// HTTP-date. Malformed values are ignored (zero).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
