package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/shard"
	"re2xolap/internal/store"
)

// parseShards interprets the -shards flag as replica groups: one
// comma-separated entry per shard, each entry a |-separated list of
// replicas in preference order. A replica is a remote /sparql base URL
// or the word "local" for an in-process partition; a plain integer N
// means N single-replica in-process partitions of the local dataset.
//
//	-shards 3
//	-shards http://a:8085/sparql,local,http://b:8085/sparql
//	-shards "http://a1/sparql|http://a2/sparql,http://b1/sparql|http://b2/sparql"
//
// Shard i of the partitioner maps to entry i, so a mixed deployment
// must list entries in partition order on every node. Replicas within
// a group must hold identical copies of partition i — that is what
// lets the coordinator fail over between them without changing answer
// bytes.
func parseShards(s string) ([][]string, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("-shards %d: shard count must be >= 1", n)
		}
		groups := make([][]string, n)
		for i := range groups {
			groups[i] = []string{"local"}
		}
		return groups, nil
	}
	entries := strings.Split(s, ",")
	groups := make([][]string, len(entries))
	for i, entry := range entries {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-shards: empty entry at position %d", i)
		}
		for _, spec := range strings.Split(entry, "|") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				return nil, fmt.Errorf("-shards entry %d: empty replica spec", i)
			}
			if err := validateReplicaSpec(spec); err != nil {
				return nil, err
			}
			groups[i] = append(groups[i], spec)
		}
	}
	return groups, nil
}

// validateReplicaSpec checks one replica spec's shape.
func validateReplicaSpec(spec string) error {
	if spec == "local" || strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return nil
	}
	return fmt.Errorf("-shards replica %q: want a shard count, %q, or an http(s) URL", spec, "local")
}

// parseShardSlot interprets the -shard flag's "i/n" form: this
// process serves only partition i of an n-way subject-hash split.
func parseShardSlot(s string) (i, n int, err error) {
	idx, count, ok := strings.Cut(s, "/")
	if ok {
		i, err = strconv.Atoi(strings.TrimSpace(idx))
		if err == nil {
			n, err = strconv.Atoi(strings.TrimSpace(count))
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/n (e.g. 0/3)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q: need 0 <= i < n", s)
	}
	return i, n, nil
}

// buildPartitions splits the dataset named by -data/-gen into n
// stores using the shared subject-hash partitioner, so every node
// that runs this function with the same inputs agrees on which shard
// owns which subject. Plain N-Triples files stream straight into the
// partitions; snapshots and generated datasets are materialized once
// and then split.
func buildPartitions(data, gen string, obsCount, n int) ([]*store.Store, error) {
	p := shard.Partitioner{N: n}
	if data != "" && !strings.HasSuffix(data, ".snap") {
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		stores, total, err := store.LoadPartitioned(f, n, p.Shard)
		if err != nil {
			return nil, fmt.Errorf("partitioning %s: %w", data, err)
		}
		log.Printf("sparqld: partitioned %d triples from %s into %d shards", total, data, n)
		return stores, nil
	}
	full, err := buildStore(data, gen, obsCount)
	if err != nil {
		return nil, err
	}
	parts := p.Split(full.Triples())
	stores := make([]*store.Store, n)
	for i, ts := range parts {
		stores[i] = store.New()
		if err := stores[i].AddAll(ts); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		stores[i].Compact()
	}
	log.Printf("sparqld: partitioned %d triples into %d shards", full.Len(), n)
	return stores, nil
}

// localDialer turns the -shards replica groups into a shard.Dialer.
// Local partitions are only built when at least one spec asks for one,
// so an all-remote coordinator needs no -data/-gen. All "local"
// replicas of shard i share partition store i (the store is read-only
// under query), which is exactly the identical-copy contract replica
// failover relies on.
func localDialer(groups [][]string, data, gen string, obsCount, workers int) (shard.Dialer, error) {
	needLocal := false
	for _, g := range groups {
		for _, spec := range g {
			if spec == "local" {
				needLocal = true
			}
		}
	}
	var parts []*store.Store
	if needLocal {
		var err error
		parts, err = buildPartitions(data, gen, obsCount, len(groups))
		if err != nil {
			return nil, err
		}
	}
	return func(shardIdx, replica int, spec string) (endpoint.Client, error) {
		if spec == "local" {
			log.Printf("sparqld: shard %d replica %d: in-process, %d triples", shardIdx, replica, parts[shardIdx].Len())
			return endpoint.NewInProcess(parts[shardIdx], endpoint.WithWorkers(workers)), nil
		}
		if err := validateReplicaSpec(spec); err != nil {
			return nil, err
		}
		log.Printf("sparqld: shard %d replica %d: remote %s", shardIdx, replica, spec)
		return endpoint.NewHTTPClient(spec), nil
	}, nil
}

// remoteDialer is the shard.Dialer behind -topology: file topologies
// name remote replicas only ("local" needs a partition count fixed at
// startup, which contradicts a topology that can change shape).
func remoteDialer(shardIdx, replica int, spec string) (endpoint.Client, error) {
	if spec == "local" {
		return nil, fmt.Errorf("-topology file: shard %d replica %d: %q replicas are not supported in file topologies (use -shards for in-process partitions)", shardIdx, replica, spec)
	}
	if err := validateReplicaSpec(spec); err != nil {
		return nil, err
	}
	log.Printf("sparqld: shard %d replica %d: remote %s", shardIdx, replica, spec)
	return endpoint.NewHTTPClient(spec), nil
}
