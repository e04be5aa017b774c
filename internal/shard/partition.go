// Package shard federates N SPARQL backends — in-process stores or
// remote /sparql endpoints, mixed freely — behind one endpoint.Client.
// Triples are partitioned by subject hash, so every star-shaped query
// (all triple patterns sharing one subject) computes each solution
// wholly on one shard and the coordinator only has to union and
// canonically re-order the per-shard results. Aggregates decompose
// through sparql.PlanPartialAggregation, joins across subject stars
// ship one side's bindings (bound_join), and everything else falls
// back to gathering the relevant triples — one row per subject of
// each top-level star of single-valued patterns, the matched relation
// of every other pattern — into a local store and executing there.
//
// The coordinator's output is a deterministic function of the dataset
// and the query, independent of the shard count: the determinism test
// suite asserts byte-identical JSON between 1-shard and N-shard
// topologies.
package shard

import (
	"hash/fnv"

	"re2xolap/internal/rdf"
)

// Partitioner assigns triples to shards by subject hash (FNV-1a over
// the term's kind and value). Subject hashing keeps all triples of one
// entity on one shard, which is what makes star-shaped queries
// shard-local; it is the standard partitioning scheme for distributed
// RDF stores.
type Partitioner struct {
	// N is the shard count; must be >= 1.
	N int
}

// Shard returns the shard index in [0, N) owning triples with the
// given subject.
func (p Partitioner) Shard(subject rdf.Term) int {
	if p.N <= 1 {
		return 0
	}
	h := fnv.New32a()
	// The kind byte keeps an IRI and a blank node with the same text
	// apart.
	h.Write([]byte{byte(subject.Kind)})
	h.Write([]byte(subject.Value))
	return int(h.Sum32() % uint32(p.N))
}

// Split partitions triples into N slices by subject. The slices are
// in input order, so a deterministic input yields deterministic
// shard contents.
func (p Partitioner) Split(ts []rdf.Triple) [][]rdf.Triple {
	n := p.N
	if n < 1 {
		n = 1
	}
	out := make([][]rdf.Triple, n)
	for _, t := range ts {
		i := p.Shard(t.S)
		out[i] = append(out[i], t)
	}
	return out
}
