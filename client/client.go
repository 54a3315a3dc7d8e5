// Package client is the native Go client for the shbfd daemon: the
// same query surfaces as the shbf library — [Set], [Counter],
// [Associator] and a [Window] rotation handle, satisfying shbf.Set,
// shbf.Counter/shbf.Updatable, shbf.Associator and shbf.Windowed — so
// callers swap a local filter for a remote daemon (or back) without
// changing query code:
//
//	c, err := client.Dial("shbp://filters.internal:8138")
//	defer c.Close()
//	var set shbf.Set = c.Namespace("tenant-a").Set()
//	set.AddAll(keys)
//	hits := set.ContainsAll(nil, keys)
//
// Two transports speak to the same daemon and are selected by the
// Dial target:
//
//   - "shbp://host:port" (or a bare "host:port") uses ShBP, the
//     daemon's length-prefixed binary batch protocol (internal/wire,
//     shbfd's -shbp-addr listener). Batches encode as packed
//     fixed-width keys when all keys share a length; decode on the
//     daemon feeds the batch filter paths directly. This is the
//     transport for serving-path use.
//   - "http://host:port" (or https) uses the /v2 HTTP/JSON API —
//     convenient through proxies and LBs, and the only transport for
//     ops tooling that wants readable wire traffic. Each op's method,
//     path and body come from the route table the daemon serves
//     (internal/wire), over net/http. Keys travel base64-encoded; the
//     data-plane bodies are written and their answers read by a hand
//     codec that falls back to encoding/json for any answer it does
//     not recognize.
//
// Every handle addresses one namespace (tenant): a logical trio of
// membership, association and multiplicity filters with its own
// geometry and window policy. [Client.CreateNamespace],
// [Client.DeleteNamespace] and [Client.Namespaces] manage tenants on
// either transport.
//
// # Errors and interface parity
//
// The library interfaces have error-less scalar methods (shbf.Set.Add,
// shbf.Counter.Count, ...), so the remote handles follow a sticky-
// error convention: a transport failure inside an error-less method
// records the first error on the handle ([Set.Err], [Counter.Err],
// [Associator.Err]) and returns the zero answer (false, 0, no-region).
// Serving paths should prefer the batch methods, which return errors
// directly. A batch update that fails mid-way reports the applied
// prefix via [*Error]'s Applied field, as the HTTP API does.
//
// Handles are safe for concurrent use; the binary transport serializes
// frames on one connection, so run one Client per connection's worth
// of desired parallelism. Failed connections are redialed on the next
// call; by default requests are never auto-retried — a lost response
// may have applied its updates.
//
// # Deadlines and retries
//
// [Client.WithContext] derives a handle whose calls honor a
// context's deadline and cancellation on both transports (the binary
// transport maps them onto connection read/write deadlines), so a
// hung daemon costs a bounded wait instead of a stuck goroutine.
// [Client.WithRetry] opts in to automatic retries — capped
// exponential backoff with jitter, applied only to idempotent
// operations and only on transport failures or daemon overload
// ([IsOverloaded]); counting updates are never retried, because a
// lost response may have applied its increments. See RetryPolicy.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"shbf/internal/server"
	"shbf/internal/wire"
)

// NamespaceConfig is the tenant-creation shape accepted by
// [Client.CreateNamespace]: a name plus per-tenant overrides of the
// daemon's base geometry (zero-valued fields inherit the daemon's
// flags). It is the same document POST /v2/namespaces accepts.
type NamespaceConfig = server.NamespaceConfig

// NamespaceInfo is one tenant's summary, as returned by
// [Client.Namespaces].
type NamespaceInfo = server.NamespaceInfo

// Stats is a namespace's occupancy/accuracy snapshot, as returned by
// [Namespace.Stats] — the same document GET /v2/namespaces/{ns}/stats
// serves.
type Stats = server.Stats

// Error is a daemon-reported failure: the wire status, the daemon's
// message, and — for batch updates — the number of updates applied
// before the failure (earlier updates stay applied; the client can
// resume from Applied).
type Error struct {
	// Status is the wire status code (wire.Status* values; HTTP
	// responses are mapped onto the same codes).
	Status byte
	// Msg is the daemon's error message.
	Msg string
	// Applied is the mid-batch split point for failed updates.
	Applied uint64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("shbfd: %s: %s", wire.StatusName(e.Status), e.Msg)
}

// IsConflict reports whether err is a daemon conflict: a capacity
// condition (count overflow, counter saturation, deleting an absent
// element, an answer larger than wire.MaxFrame), a rotate against a
// non-windowed namespace, or creating a namespace that exists.
func IsConflict(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Status == wire.StatusConflict
}

// IsNotFound reports whether err names an unknown namespace.
func IsNotFound(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Status == wire.StatusNotFound
}

// IsOverloaded reports whether err is daemon admission control
// shedding the request — a tenant's rate quota, the daemon's memory
// ceiling, or the binary listener's in-flight frame cap (HTTP 429 /
// wire StatusOverloaded). The request was not applied; it is safe to
// retry after a backoff, which [Client.WithRetry] automates.
func IsOverloaded(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Status == wire.StatusOverloaded
}

// transport is the per-protocol round trip: fill resp from req,
// returning an error only for transport-level failures (daemon-
// reported failures travel in resp.Status). ctx bounds the exchange:
// both transports honor its deadline and cancellation.
type transport interface {
	roundTrip(ctx context.Context, req *wire.Request, resp *wire.Response) error
	close() error
}

// Client is a connection to one shbfd daemon over one transport. Safe
// for concurrent use. The zero retry/context configuration runs every
// call exactly once with no deadline; derive bounded or retrying
// handles with [Client.WithContext] and [Client.WithRetry].
type Client struct {
	t     transport
	ctx   context.Context // nil = context.Background()
	retry *RetryPolicy    // nil = never retry
	stats *clientStats    // shared by every derived handle; see Stats
}

// WithContext returns a handle sharing this client's connection whose
// calls are bounded by ctx: its deadline and cancellation apply to
// every round trip (and to retry backoff waits). The original client
// is unchanged — derive per-request handles freely:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	err := c.WithContext(ctx).Ping()
func (c *Client) WithContext(ctx context.Context) *Client {
	cc := *c
	cc.ctx = ctx
	return &cc
}

// WithRetry returns a handle sharing this client's connection that
// automatically retries idempotent operations per p. The original
// client is unchanged and keeps the default never-retry behavior.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cc := *c
	cc.retry = &p
	return &cc
}

// context returns the client's bound context (Background if unset).
func (c *Client) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// Dial connects to a daemon. The target selects the transport:
// "shbp://host:port" or a bare "host:port" speaks the binary protocol
// to shbfd's -shbp-addr listener; "http://..." and "https://..."
// speak JSON to the -addr listener. The binary transport dials
// eagerly, so a down daemon fails here rather than on first use.
func Dial(target string) (*Client, error) {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
		return &Client{t: newHTTPTransport(target, nil), stats: new(clientStats)}, nil
	case strings.HasPrefix(target, "shbp://"):
		return dialBinary(strings.TrimPrefix(target, "shbp://"))
	case strings.Contains(target, "://"):
		return nil, fmt.Errorf("client: unsupported scheme in %q (want shbp:// or http(s)://)", target)
	default:
		return dialBinary(target)
	}
}

// DialHTTP is Dial for an HTTP target with a caller-supplied
// http.Client (timeouts, TLS config, instrumented transports).
func DialHTTP(baseURL string, hc *http.Client) (*Client, error) {
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		return nil, fmt.Errorf("client: %q is not an http(s) URL", baseURL)
	}
	return &Client{t: newHTTPTransport(baseURL, hc), stats: new(clientStats)}, nil
}

// Close releases the transport (idle HTTP connections, the binary
// connection). Handles created from the client stop working.
func (c *Client) Close() error { return c.t.close() }

// Ping checks daemon liveness over the client's transport.
func (c *Client) Ping() error {
	_, err := c.do(&wire.Request{Op: wire.OpPing})
	return err
}

// Metrics fetches the daemon's metrics scrape in Prometheus text
// exposition format — GET /metrics over HTTP, the metrics op over
// ShBP; both transports serve byte-identical scrapes. For this
// client's own counters, see [Client.Stats].
func (c *Client) Metrics() ([]byte, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpMetrics})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// Namespace returns a handle on one tenant ("" addresses the default
// namespace). The namespace is not validated here; an unknown name
// surfaces as IsNotFound errors from the handle's methods.
func (c *Client) Namespace(name string) *Namespace {
	if name == "" {
		name = server.DefaultNamespace
	}
	return &Namespace{c: c, name: name}
}

// CreateNamespace creates a tenant. Creating an existing name is a
// conflict (IsConflict), not an upsert.
func (c *Client) CreateNamespace(cfg NamespaceConfig) error {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	_, err = c.do(&wire.Request{Op: wire.OpNamespaceCreate, Namespace: cfg.Name, Blob: blob})
	return err
}

// DeleteNamespace deletes a tenant and its filters. The default
// namespace cannot be deleted.
func (c *Client) DeleteNamespace(name string) error {
	_, err := c.do(&wire.Request{Op: wire.OpNamespaceDelete, Namespace: name})
	return err
}

// Namespaces lists the daemon's tenants, sorted by name.
func (c *Client) Namespaces() ([]NamespaceInfo, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpNamespaceList})
	if err != nil {
		return nil, err
	}
	var body struct {
		Namespaces []NamespaceInfo `json:"namespaces"`
	}
	if err := json.Unmarshal(resp.Blob, &body); err != nil {
		return nil, fmt.Errorf("client: decoding namespace list: %w", err)
	}
	return body.Namespaces, nil
}

// do runs one round trip — retried per the client's RetryPolicy when
// one is set — and lifts daemon-reported failures into *Error.
func (c *Client) do(req *wire.Request) (*wire.Response, error) {
	ctx := c.context()
	for attempt := 0; ; attempt++ {
		c.stats.request()
		var resp wire.Response
		err := c.t.roundTrip(ctx, req, &resp)
		if err == nil && resp.Status == wire.StatusOK {
			return &resp, nil
		}
		c.stats.error()
		if err == nil {
			err = &Error{Status: resp.Status, Msg: resp.Msg, Applied: resp.Applied}
		}
		if !c.retry.shouldRetry(req.Op, err, attempt) {
			var e *Error
			if errors.As(err, &e) {
				return &resp, err
			}
			return nil, err
		}
		if werr := c.retry.wait(ctx, attempt); werr != nil {
			// The context expired during backoff; the last real
			// failure is the useful error, not the wait's.
			return nil, err
		}
		c.stats.retry()
	}
}
