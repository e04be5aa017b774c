package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
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
	if spec == "local" || isURL(spec) {
		return nil
	}
	return fmt.Errorf("-shards replica %q: want a shard count, %q, or an http(s) URL", spec, "local")
}

// isURL reports whether a replica spec names a remote /sparql endpoint.
func isURL(spec string) bool {
	return strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://")
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

// openTriples opens the dataset named by -data/-gen as a triple
// source for store.LoadPartitioned. A plain file streams through the
// decoder. A generated dataset is collected as generated, with no
// store built, and a snapshot is loaded; both are then walked in
// memory. A bad flag combination is reported by buildStore. done
// releases the source.
func openTriples(data, gen string, obsCount int) (next func() (rdf.Triple, error), done func() error, err error) {
	var ts []rdf.Triple
	switch {
	case data != "" && gen == "" && !strings.HasSuffix(data, ".snap"):
		f, err := os.Open(data)
		if err != nil {
			return nil, nil, err
		}
		return rdf.NewDecoder(f).Decode, f.Close, nil
	case gen != "" && data == "":
		spec, err := datagen.Preset(gen, obsCount)
		if err != nil {
			return nil, nil, err
		}
		spec.Generate(func(t rdf.Triple) { ts = append(ts, t) })
	default:
		st, err := buildStore(data, gen, obsCount)
		if err != nil {
			return nil, nil, err
		}
		ts = st.Triples()
	}
	return func() (rdf.Triple, error) {
		if len(ts) == 0 {
			return rdf.Triple{}, io.EOF
		}
		t := ts[0]
		ts = ts[1:]
		return t, nil
	}, func() error { return nil }, nil
}

// buildPartitions reads the dataset named by -data/-gen once and
// routes each triple by route(subject) into one of n stores
// (store.LoadPartitioned; -1 skips the triple). Routing by the shared
// subject-hash partitioner is what makes every node that runs this
// with the same inputs agree on which shard owns which subject.
func buildPartitions(data, gen string, obsCount, n int, route func(subject rdf.Term) int) ([]*store.Store, error) {
	next, done, err := openTriples(data, gen, obsCount)
	if err != nil {
		return nil, err
	}
	defer done()
	stores, total, err := store.LoadPartitioned(next, n, route)
	if err != nil {
		return nil, fmt.Errorf("partitioning %s: %w", cmp.Or(data, gen), err)
	}
	log.Printf("sparqld: read %d triples from %s into %d partition stores", total, cmp.Or(data, gen), n)
	return stores, nil
}

// dialShards turns the -shards replica groups into clients: a "local"
// replica of shard i queries partition i in process, a URL dials over
// HTTP. All "local" replicas of shard i share partition store i (the
// store is read-only under query), which is exactly the identical-copy
// contract replica failover relies on. Partitions are only built when
// a spec asks for one, so an all-remote coordinator needs no
// -data/-gen.
func dialShards(groups [][]string, data, gen string, obsCount, workers int) ([][]endpoint.Client, error) {
	var parts []*store.Store
	out := make([][]endpoint.Client, len(groups))
	for i, g := range groups {
		for j, spec := range g {
			if spec != "local" {
				out[i] = append(out[i], dialRemote(i, j, spec))
				continue
			}
			if parts == nil {
				var err error
				parts, err = buildPartitions(data, gen, obsCount, len(groups), shard.Partitioner{N: len(groups)}.Shard)
				if err != nil {
					return nil, err
				}
			}
			log.Printf("sparqld: shard %d replica %d: in-process, %d triples", i, j, parts[i].Len())
			out[i] = append(out[i], endpoint.NewInProcess(parts[i], endpoint.WithWorkers(workers)))
		}
	}
	return out, nil
}

// dialRemote dials one remote replica (spec is an http(s) URL).
func dialRemote(shardIdx, replica int, spec string) endpoint.Client {
	log.Printf("sparqld: shard %d replica %d: remote %s", shardIdx, replica, spec)
	return endpoint.NewHTTPClient(spec)
}

// fileTopology is the coordinator's -topology file, a JSON object
// listing each shard's replica URLs in preference order:
//
//	{"shards": [["http://a:8085/sparql", "http://b:8085/sparql"],
//	            ["http://c:8085/sparql"]]}
//
// sparqld reads it at startup, on SIGHUP, and on every -topology-poll
// tick, and applies it whenever it names a different replica set than
// the one applied last. It is used from one goroutine at a time.
type fileTopology struct {
	path    string
	specs   [][]string          // the replica set applied last
	clients [][]endpoint.Client // clients[i][j] serves specs[i][j]
}

// readTopology reads and validates the file: at least one shard, no
// shard without replicas, every replica an http(s) URL. "local" is
// rejected: an in-process partition needs a shard count fixed at
// startup, which a file that can change shape contradicts.
func readTopology(path string) ([][]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-topology file: %w", err)
	}
	var f struct {
		Shards [][]string `json:"shards"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("-topology file %s: %w", path, err)
	}
	if len(f.Shards) == 0 {
		return nil, fmt.Errorf("-topology file %s: no shards", path)
	}
	for i, g := range f.Shards {
		if len(g) == 0 {
			return nil, fmt.Errorf("-topology file %s: shard %d has no replicas", path, i)
		}
		for j, spec := range g {
			switch {
			case spec == "local":
				return nil, fmt.Errorf("-topology file %s: shard %d replica %d: %q replicas are not supported in file topologies (use -shards for in-process partitions)", path, i, j, spec)
			case !isURL(spec):
				return nil, fmt.Errorf("-topology file %s: shard %d replica %d: %q is not an http(s) URL", path, i, j, spec)
			}
		}
	}
	return f.Shards, nil
}

// apply re-reads the file and, when it names a different replica set
// than the one applied last, hands use the new client groups and, if
// use succeeds, records them as applied. Only added specs are dialed:
// a spec a shard keeps gets its old client back, which is how the
// coordinator knows to keep that replica's breaker and health state.
// It reports whether use ran.
func (f *fileTopology) apply(use func([][]endpoint.Client) error) (bool, error) {
	specs, err := readTopology(f.path)
	if err != nil || slices.EqualFunc(specs, f.specs, slices.Equal[[]string]) {
		return false, err
	}
	type slot struct {
		shard int
		spec  string
	}
	kept := map[slot][]endpoint.Client{}
	for i, g := range f.specs {
		for j, spec := range g {
			kept[slot{i, spec}] = append(kept[slot{i, spec}], f.clients[i][j])
		}
	}
	clients := make([][]endpoint.Client, len(specs))
	for i, g := range specs {
		for j, spec := range g {
			if cs := kept[slot{i, spec}]; len(cs) > 0 {
				clients[i] = append(clients[i], cs[0])
				kept[slot{i, spec}] = cs[1:]
			} else {
				clients[i] = append(clients[i], dialRemote(i, j, spec))
			}
		}
	}
	if err := use(clients); err != nil {
		return false, err
	}
	f.specs, f.clients = specs, clients
	return true, nil
}
