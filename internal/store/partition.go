package store

import (
	"fmt"
	"io"

	"re2xolap/internal/rdf"
)

// LoadPartitioned streams N-Triples from r into n fresh stores,
// routing each triple by shardOf(subject) — the shard-aware bulk-load
// path a scatter-gather coordinator uses to split one dataset across
// in-process shard stores in a single pass. Each shard takes the bulk
// path Load takes on an empty store, so shard i ends up exactly as
// Load of its triples would leave it, generation included. shardOf
// must return a value in [0, n); internal/shard.Partitioner.Shard is
// the standard choice (injected as a function so this package does not
// depend on the shard layer). Returns the stores and the total triple
// count.
func LoadPartitioned(r io.Reader, n int, shardOf func(subject rdf.Term) int) ([]*Store, int, error) {
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
	dec := rdf.NewDecoder(r)
	for total := 0; ; total++ {
		t, err := dec.Decode()
		if err == io.EOF {
			return stores, total, nil
		}
		if err == nil {
			err = t.Validate()
		}
		if err != nil {
			return nil, total, fmt.Errorf("store: load partitioned: %w", err)
		}
		i := shardOf(t.S)
		if i < 0 || i >= n {
			return nil, total, fmt.Errorf("store: load partitioned: shard %d out of range [0,%d)", i, n)
		}
		bulks[i].add(t)
	}
}
