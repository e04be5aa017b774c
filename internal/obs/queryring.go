package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// ShardCall summarizes one shard's part in a federated query. A query
// may send a shard several calls — a plan's round can hold several
// queries, and a bound join runs one round per step — and the
// coordinator folds them into one ShardCall in query order, never in
// arrival order, so the record does not depend on timing.
type ShardCall struct {
	Shard int `json:"shard"`
	// Replica is the replica index that answered the shard's last
	// query.
	Replica int `json:"replica,omitempty"`
	// Rows is the number of result rows (an ASK answer has none) in the
	// shard's answers the coordinator used: a round's answers are used
	// all or none, so a round the shard failed adds nothing.
	Rows int `json:"rows"`
	// WallMS is the time from the shard's first send of a round to its
	// last answer, summed over rounds; the coordinator's own work on the
	// answers is not in it.
	WallMS float64 `json:"wall_ms"`
	// Attempts, Retries and Failovers sum the resilience layer's counts
	// over all of the shard's queries, failed ones included: Attempts
	// are the requests the shard's replicas received, Failovers the
	// replicas tried and failed before an answer.
	Attempts  int `json:"attempts,omitempty"`
	Retries   int `json:"retries,omitempty"`
	Failovers int `json:"failovers,omitempty"`
	// Skipped marks a shard that failed: its answers were dropped from a
	// degraded-mode result, or it failed the query in strict mode.
	Skipped bool `json:"skipped,omitempty"`
	// Error is the first failed query's error, in query order.
	Error string `json:"error,omitempty"`
}

// QueryRecord is one served query's profile summary: the JSON line
// the slow-query log writes and the entry the /debug/queries ring
// holds, so both sinks report the same fields for the same request.
// Durations are milliseconds so the records are directly plottable.
type QueryRecord struct {
	Time   string  `json:"time"`
	Source string  `json:"source"`         // "inprocess", "http", "resilient", "server"
	Step   string  `json:"step,omitempty"` // issuing workflow step tag
	WallMS float64 `json:"wall_ms"`
	// PhaseMS breaks the wall time into engine phases (parse, plan,
	// join, aggregate, sort) and serialization, when the executing layer
	// reports them; zero phases are absent.
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
	Rows    int                `json:"rows"`
	Retries int                `json:"retries,omitempty"`
	// Plan and Shards describe federated execution: the coordinator's
	// plan class (colocated/partial_agg/bound_join/gather) and the
	// per-shard attempt/retry/row accounting.
	Plan   string      `json:"plan,omitempty"`
	Shards []ShardCall `json:"shards,omitempty"`
	// Incomplete marks a degraded-mode answer; SkippedShards lists the
	// shard indices it was served without.
	Incomplete    bool  `json:"incomplete,omitempty"`
	SkippedShards []int `json:"skipped_shards,omitempty"`
	// CacheHit and Coalesced report serve-layer handling: answered
	// from the result cache, or deduplicated onto a concurrent
	// identical execution. QueueWaitMS is admission-control queue time
	// — a "slow" query that spent its wall time queued is then
	// distinguishable from one that was slow to join.
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	Error       string  `json:"error,omitempty"`
	Query       string  `json:"query"`
}

// maxSlowQueryLen bounds the recorded query text so one enormous
// VALUES block cannot bloat a sink.
const maxSlowQueryLen = 2048

// stamp fills the timestamp and truncates oversized query text, the
// normalization both sinks apply on Record.
func (q *QueryRecord) stamp(now time.Time) {
	q.Time = now.UTC().Format(time.RFC3339Nano)
	if len(q.Query) > maxSlowQueryLen {
		q.Query = q.Query[:maxSlowQueryLen] + "...(truncated)"
	}
}

// QueryRing keeps the last N query records in a fixed ring. A nil
// *QueryRing is the disabled state: Record no-ops and Snapshot
// returns nil, following the package's nil-safe pattern. Safe for
// concurrent use.
type QueryRing struct {
	mu   sync.Mutex
	buf  []QueryRecord
	next int
	full bool
	now  func() time.Time // injectable clock (tests)
}

// NewQueryRing returns a ring holding the last n records (n <= 0
// defaults to 128).
func NewQueryRing(n int) *QueryRing {
	if n <= 0 {
		n = 128
	}
	return &QueryRing{buf: make([]QueryRecord, n), now: time.Now}
}

// Record appends one entry, evicting the oldest when full. The
// timestamp is filled here and oversized query text is truncated like
// the slow-query log's.
func (r *QueryRing) Record(q QueryRecord) {
	if r == nil {
		return
	}
	q.stamp(r.now())
	r.mu.Lock()
	r.buf[r.next] = q
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns how many records the ring currently holds.
func (r *QueryRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Snapshot returns the held records newest-first.
func (r *QueryRing) Snapshot() []QueryRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]QueryRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// Handler serves the ring as a JSON array, newest-first (the
// /debug/queries endpoint). A nil ring serves 404.
func (r *QueryRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "query log disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
