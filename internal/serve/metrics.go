package serve

import (
	"time"

	"re2xolap/internal/obs"
)

// shedReasons is the label vocabulary of the shed counter's reason
// dimension.
var shedReasons = [...]string{"queue_full", "deadline"}

// metrics is the serve stack's registry series, created once at
// construction. Without a registry every handle is nil and no-ops. The
// tenant-labeled series (sheds, queue wait) are created lazily per
// tenant through the registry (which dedupes by name+labels); the
// shared interner bounds their cardinality.
type metrics struct {
	reg   *obs.Registry
	names *tenantNames

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	coalesced      *obs.Counter
	executions     *obs.Counter
}

// newMetrics registers the serve series. The occupancy and queue-depth
// gauges sample the stack directly at exposition time, so they are
// registered by the Stack after construction (it owns the sampled
// state). names is the tenant interner shared with the SLO tracker.
func newMetrics(reg *obs.Registry, names *tenantNames) *metrics {
	return &metrics{
		reg:   reg,
		names: names,
		cacheHits: reg.Counter("re2xolap_result_cache_hits_total",
			"Queries answered from the result cache without executing."),
		cacheMisses: reg.Counter("re2xolap_result_cache_misses_total",
			"Cache-eligible queries that were not in the result cache."),
		cacheEvictions: reg.Counter("re2xolap_result_cache_evictions_total",
			"Result-cache entries evicted to stay within the size bound."),
		coalesced: reg.Counter("re2xolap_serve_coalesced_total",
			"Requests deduplicated onto a concurrent identical execution."),
		executions: reg.Counter("re2xolap_serve_executions_total",
			"Queries the serve stack actually forwarded to the inner client."),
	}
}

// observeQueueWait records one admitted request's queue time on the
// tenant's wait histogram. This runs only on the slow (queued) path,
// so the registry lookup (a map read after the first call per tenant)
// is off the fast path. Without a registry the tenant is not interned,
// so the bounded label set stays the SLO tracker's alone.
func (m *metrics) observeQueueWait(d time.Duration, tenant string) {
	if m.reg != nil {
		m.reg.Histogram("re2xolap_serve_queue_wait_seconds",
			"Time admitted requests spent queued for an execution slot, by tenant.", nil,
			obs.L("tenant", m.names.intern(tenant))).ObserveDuration(d)
	}
}

// shed counts one admission rejection, attributed to reason and
// tenant (reason ∈ shedReasons; tenant is interned to the bounded
// label set).
func (m *metrics) shed(reason, tenant string) {
	if m.reg != nil {
		m.reg.Counter("re2xolap_serve_shed_total",
			"Requests rejected by admission control, by reason and tenant.",
			obs.L("reason", reason), obs.L("tenant", m.names.intern(tenant))).Inc()
	}
}
