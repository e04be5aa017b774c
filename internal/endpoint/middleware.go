package endpoint

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Server-side hardening middleware. cmd/sparqld composes these around
// the SPARQL handler so one bad query cannot take the process down:
// panics become 500s, every request carries a deadline, and excess
// load is shed with 503 instead of queueing without bound.

// Recover converts handler panics into 500 responses (with a logged
// stack trace) instead of killing the serving goroutine's connection
// or, for panics during header writes, the whole process.
func Recover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("endpoint: panic serving %s: %v\n%s", r.URL.Path, v, debug.Stack())
				// Best effort: if the handler already wrote headers this
				// is a no-op on the status line.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// WithQueryTimeout enforces a per-request deadline through the request
// context. The SPARQL executor checks its context inside long joins,
// closures, and aggregations, so expiry actually stops work rather
// than just abandoning the response.
func WithQueryTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// LimitInFlight admits at most n concurrent requests; the rest are
// shed immediately with 503 and a Retry-After hint, which the
// ResilientClient treats as retryable. Shedding beats queueing: a
// saturated analytical endpoint that queues silently turns client
// deadlines into cascading timeouts.
func LimitInFlight(h http.Handler, n int) http.Handler {
	if n <= 0 {
		return h
	}
	var inFlight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inFlight.Add(1) > int64(n) {
			inFlight.Add(-1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
			return
		}
		defer inFlight.Add(-1)
		h.ServeHTTP(w, r)
	})
}

// HardenConfig bundles the server-side protections.
type HardenConfig struct {
	// QueryTimeout is the per-request execution deadline; 0 disables.
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrent requests; 0 disables shedding.
	MaxInFlight int
}

// Harden wraps h in the full protection stack: shedding outermost
// (cheap rejection before any work), then panic recovery, then the
// per-request deadline.
func Harden(h http.Handler, cfg HardenConfig) http.Handler {
	h = WithQueryTimeout(h, cfg.QueryTimeout)
	h = Recover(h)
	h = LimitInFlight(h, cfg.MaxInFlight)
	return h
}
