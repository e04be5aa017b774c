package re2xolap

import (
	"re2xolap/internal/obs"
	"re2xolap/internal/shard"
)

// Federation surface: a scatter-gather coordinator over subject-hash
// partitioned shards, usable anywhere a Client is (Bootstrap,
// NewSession, QueryX). The coordinator classifies each query into a
// plan class — colocated, partial_agg, bound_join, or gather — and
// reports it in QueryMeta.Plan along with per-shard accounting.
type (
	// CoordinatorClient is the scatter-gather federation client. It
	// implements Client and QuerierX; results are byte-identical to a
	// single node over the union of the partitions.
	CoordinatorClient = shard.Coordinator
	// ShardTopology names the replica endpoints behind a coordinator:
	// one ordered group of replica specs per logical shard.
	ShardTopology = shard.Topology
	// ShardTopologyView is one resolved topology.
	ShardTopologyView = shard.TopologyView
	// ShardOption configures NewCoordinatorClient (see WithHedge,
	// WithHealth, WithDegraded, WithShardWorkers,
	// WithShardRegistry, WithShardPolicy).
	ShardOption = shard.Option
	// ShardHealthConfig configures the background replica prober.
	ShardHealthConfig = shard.HealthConfig
	// ShardCall is the per-shard accounting of one federated query
	// (rows, wall time, attempts, retries, failovers), reported in
	// QueryMeta.Shards.
	ShardCall = obs.ShardCall
	// ShardDialer turns a replica spec from a ShardTopology into a
	// Client.
	ShardDialer = shard.Dialer
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
	// WithShardPolicy sets the per-replica resilience policy.
	WithShardPolicy = shard.WithPolicy

	// NewFileShardTopology reads the topology from a JSON file and
	// re-resolves it on CoordinatorClient.Reload.
	NewFileShardTopology = shard.NewFileTopology
)

// NewCoordinatorClient builds a federation coordinator over the given
// topology. URL topologies (ShardURLs, NewFileShardTopology) are
// dialed over HTTP; a topology that brings its own dialer — any
// ShardTopology implementing shard.DialerProvider, such as
// ShardClients — is dialed through it.
//
//	coord, err := re2xolap.NewCoordinatorClient(
//		re2xolap.ShardURLs(
//			[]string{"http://a:8080/sparql", "http://a2:8080/sparql"},
//			[]string{"http://b:8080/sparql"},
//		),
//		re2xolap.WithDegraded(true),
//		re2xolap.WithHedge(50*time.Millisecond),
//	)
//
// The coordinator is a Client: point Bootstrap at it and the whole
// synthesis/refinement stack runs federated.
func NewCoordinatorClient(topo ShardTopology, opts ...ShardOption) (*CoordinatorClient, error) {
	dial := shard.HTTPDialer()
	if p, ok := topo.(shard.DialerProvider); ok {
		dial = p.Dialer()
	}
	return shard.NewDynamic(topo, dial, opts...)
}

// ShardURLs builds a static topology from replica URL groups:
// groups[i] lists shard i's replica endpoint URLs in preference
// order, every replica holding the identical partition i.
func ShardURLs(groups ...[]string) ShardTopology {
	return shard.Static{View: shard.TopologyView{Groups: groups}}
}

// ShardClients builds a static topology from pre-built clients (for
// in-process shards, custom transports, or tests): groups[i] lists
// shard i's replica clients in preference order.
func ShardClients(groups ...[]Client) ShardTopology {
	return shard.NewClientTopology(groups...)
}
