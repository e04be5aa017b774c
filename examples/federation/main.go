// Federation: partition a statistical KG across in-process shards,
// stand up a scatter-gather coordinator with the options API, run the
// full example-driven synthesis stack over the federation, and add a
// replica to every shard live. Build the groups with ShardURLs instead
// to federate remote sparqld processes — nothing above the coordinator
// changes.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"re2xolap"
)

func main() {
	ctx := context.Background()

	// 1. Build the dataset and split it by subject hash: every triple
	//    of a subject lands on the same shard, which is the colocation
	//    contract all coordinator plans rely on.
	spec := re2xolap.EurostatLike(5000)
	st, err := spec.BuildStore()
	if err != nil {
		log.Fatal(err)
	}
	const shards = 3
	parts := re2xolap.ShardPartitioner{N: shards}.Split(st.Triples())
	groups := make([][]re2xolap.Client, shards)
	stores := make([]*re2xolap.Store, shards)
	for i, ts := range parts {
		s := re2xolap.NewStore()
		if err := s.AddAll(ts); err != nil {
			log.Fatal(err)
		}
		s.Compact()
		stores[i] = s
		groups[i] = []re2xolap.Client{re2xolap.NewInProcessClient(s)}
		fmt.Printf("shard %d: %d triples\n", i, s.Len())
	}

	// 2. The coordinator, configured with options: degraded mode keeps
	//    answering (marked Incomplete) if a shard dies, and hedging caps
	//    tail latency.
	reg := re2xolap.NewRegistry()
	coord, err := re2xolap.NewCoordinatorClient(groups,
		re2xolap.WithDegraded(true),
		re2xolap.WithHedge(250*time.Millisecond),
		re2xolap.WithShardRegistry(reg),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// 3. The coordinator is a Client: the synthesis stack runs on it
	//    unchanged, and results are byte-identical to a single node.
	sys, err := re2xolap.Bootstrap(ctx, coord, spec.Config())
	if err != nil {
		log.Fatal(err)
	}
	cands, err := sys.Synthesize(ctx, "Country 5", "Period 3")
	if err != nil {
		log.Fatal(err)
	}
	if len(cands) == 0 {
		log.Fatal("no interpretation found")
	}
	fmt.Printf("\n%d candidate interpretations; executing [0] %s\n",
		len(cands), cands[0].Query.Description)
	rs, err := sys.Execute(ctx, cands[0].Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated result: %d tuples\n", rs.Len())

	// 4. Per-query federation metadata: the plan class each query took
	//    and the per-shard accounting.
	q := cands[0].Query.ToSPARQL()
	_, meta, err := re2xolap.QueryX(ctx, coord, re2xolap.Request{Query: q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan class: %s\n", meta.Plan)
	for _, call := range meta.Shards {
		fmt.Printf("  shard %d: %d rows in %.2fms (attempts=%d)\n",
			call.Shard, call.Rows, call.WallMS, call.Attempts)
	}

	// 5. Live topology change: hand Reload the groups by value with a
	//    second replica per shard (here a second client over the same
	//    partition store). The clients passed back unchanged keep their
	//    breaker and health state; in-flight queries finish on the
	//    groups they started with.
	for i, g := range groups {
		groups[i] = append(g, re2xolap.NewInProcessClient(stores[i]))
	}
	if _, err := coord.Reload(groups); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded: replicas per shard %v\n", coord.Replicas())
}
