package store

import (
	"fmt"
	"io"

	"re2xolap/internal/rdf"
)

// LoadPartitioned reads triples from next until io.EOF into n fresh
// stores, routing each triple by shardOf(subject) — the shard-aware
// bulk-load path a scatter-gather coordinator uses to split one
// dataset across in-process shard stores in a single pass. next is
// any triple source: an rdf.Decoder's Decode, or a walk over triples
// already in memory. shardOf returns a store index in [0, n), or -1
// for a triple this load skips (a shard server building only its own
// partition). Each shard takes the bulk path Load takes on an empty
// store, so shard i ends up exactly as Load of its triples would leave
// it, generation included. internal/shard.Partitioner.Shard is the
// standard shardOf (injected as a function so this package does not
// depend on the shard layer). Returns the stores and the count of
// triples read.
func LoadPartitioned(next func() (rdf.Triple, error), n int, shardOf func(subject rdf.Term) int) ([]*Store, int, error) {
	if n < 1 {
		return nil, 0, fmt.Errorf("store: load partitioned: shard count %d < 1", n)
	}
	stores := make([]*Store, n)
	bulks := make([]*bulkLoad, n)
	for i := range stores {
		stores[i] = New()
		stores[i].mu.Lock()
		bulks[i] = stores[i].beginBulk()
	}
	defer func() {
		for i, b := range bulks {
			b.finish()
			stores[i].mu.Unlock()
		}
	}()
	for total := 0; ; total++ {
		t, err := next()
		if err == io.EOF {
			return stores, total, nil
		}
		if err == nil {
			err = t.Validate()
		}
		if err != nil {
			return nil, total, fmt.Errorf("store: load partitioned: %w", err)
		}
		switch i := shardOf(t.S); {
		case i >= 0 && i < n:
			bulks[i].add(t)
		case i != -1:
			return nil, total, fmt.Errorf("store: load partitioned: shard %d out of range [0,%d)", i, n)
		}
	}
}
