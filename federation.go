package re2xolap

import (
	"fmt"
	"strings"

	"re2xolap/internal/obs"
	"re2xolap/internal/shard"
)

// Federation surface: a scatter-gather coordinator over subject-hash
// partitioned shards, usable anywhere a Client is (Bootstrap,
// NewSession, QueryX). The coordinator classifies each query into a
// plan class — colocated, partial_agg, bound_join, or gather — and
// reports it in QueryMeta.Plan along with per-shard accounting.
//
// A coordinator is built from replica groups of Clients: groups[i]
// lists shard i's replicas in preference order, every one holding an
// identical copy of partition i. A shard call tries them in order,
// failing over on transient errors and, under WithHedge, hedging a
// silent one; a replica passed in as a ResilientClient keeps its own
// policy. Reload swaps in groups of the same shard count while queries
// run; a client handed back unchanged keeps its breaker and health.
type (
	// CoordinatorClient is the scatter-gather federation client. It
	// implements Client and QuerierX; results are byte-identical to a
	// single node over the union of the partitions.
	CoordinatorClient = shard.Coordinator
	// ShardOption configures NewCoordinatorClient (see WithHedge,
	// WithHealth, WithDegraded, WithShardWorkers, WithShardRegistry).
	ShardOption = shard.Option
	// ShardHealthConfig configures the background replica prober.
	ShardHealthConfig = shard.HealthConfig
	// ShardCall is the per-shard accounting of one federated query
	// (rows, wall time, attempts, retries, failovers), reported in
	// QueryMeta.Shards.
	ShardCall = obs.ShardCall
	// ShardPartitioner is the subject-hash partitioner; data split
	// with it satisfies the coordinator's colocation contract.
	ShardPartitioner = shard.Partitioner
)

// Coordinator constructor options, re-exported under clash-free names
// (WithShardWorkers vs the endpoint-level WithWorkers, and so on).
var (
	// WithHedge hedges slow shard calls after the given budget.
	WithHedge = shard.WithHedge
	// WithHealth enables the background replica prober.
	WithHealth = shard.WithHealth
	// WithDegraded serves partial results when shards fail, marking
	// the answer Incomplete instead of erroring.
	WithDegraded = shard.WithDegraded
	// WithShardWorkers bounds the coordinator's scatter concurrency.
	WithShardWorkers = shard.WithWorkers
	// WithShardRegistry wires coordinator metrics into a Registry.
	WithShardRegistry = shard.WithRegistry
)

// NewCoordinatorClient builds a federation coordinator over replica
// groups: groups[i] lists shard i's replicas in preference order.
// In-process shards, custom transports, and remote endpoints (see
// ShardURLs) mix freely.
//
//	groups, err := re2xolap.ShardURLs(
//		[]string{"http://a:8080/sparql", "http://a2:8080/sparql"},
//		[]string{"http://b:8080/sparql"},
//	)
//	...
//	coord, err := re2xolap.NewCoordinatorClient(groups,
//		re2xolap.WithDegraded(true),
//		re2xolap.WithHedge(50*time.Millisecond),
//	)
//
// The coordinator is a Client: point Bootstrap at it and the whole
// synthesis/refinement stack runs federated.
func NewCoordinatorClient(groups [][]Client, opts ...ShardOption) (*CoordinatorClient, error) {
	return shard.NewReplicated(groups, opts...)
}

// ShardURLs dials replica URL groups over HTTP, in the shape
// NewCoordinatorClient and CoordinatorClient.Reload take: groups[i]
// lists shard i's replica endpoint URLs in preference order, every
// replica holding the identical partition i.
func ShardURLs(groups ...[]string) ([][]Client, error) {
	out := make([][]Client, len(groups))
	for i, g := range groups {
		for j, u := range g {
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("shard %d replica %d: %q is not an http(s) URL", i, j, u)
			}
			out[i] = append(out[i], NewHTTPClient(u))
		}
	}
	return out, nil
}
