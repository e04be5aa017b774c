package shard

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"re2xolap/internal/endpoint"
)

// A Topology names the replica endpoints behind a coordinator: one
// ordered group of replica specs per logical shard, where every
// replica of a group holds the same partition. The coordinator
// resolves the topology at construction and again on every Reload, so
// replicas can be added, removed, or replaced while queries are in
// flight — each query drains on the view it started with.
type Topology interface {
	// Resolve returns the current view. Groups[i] lists shard i's
	// replicas in preference order: the coordinator routes to the first
	// healthy one and fails over down the list.
	Resolve() (TopologyView, error)
}

// TopologyView is one resolved topology: Groups[i] holds the replica
// specs for shard i. A spec's meaning belongs to the Dialer that
// turns it into a client (a /sparql URL, the word "local", ...).
type TopologyView struct {
	Groups [][]string `json:"shards"`
}

// Validate checks structural sanity: at least one shard, no empty
// groups, no empty specs.
func (v TopologyView) Validate() error {
	if len(v.Groups) == 0 {
		return fmt.Errorf("shard: topology has no shards")
	}
	for i, g := range v.Groups {
		if len(g) == 0 {
			return fmt.Errorf("shard: topology shard %d has no replicas", i)
		}
		for j, spec := range g {
			if spec == "" {
				return fmt.Errorf("shard: topology shard %d replica %d is empty", i, j)
			}
		}
	}
	return nil
}

// Equal reports whether two views name the same replicas in the same
// order.
func (v TopologyView) Equal(o TopologyView) bool {
	if len(v.Groups) != len(o.Groups) {
		return false
	}
	for i := range v.Groups {
		if len(v.Groups[i]) != len(o.Groups[i]) {
			return false
		}
		for j := range v.Groups[i] {
			if v.Groups[i][j] != o.Groups[i][j] {
				return false
			}
		}
	}
	return true
}

// Static is the fixed Topology over replica specs: Resolve always
// returns the same view (the root package's ShardURLs builds one).
type Static struct{ View TopologyView }

// Resolve implements Topology.
func (s Static) Resolve() (TopologyView, error) {
	return s.View, s.View.Validate()
}

// FileTopology reads the view from a JSON file of the form
//
//	{"shards": [["http://a:8085/sparql", "http://b:8085/sparql"],
//	            ["http://c:8085/sparql"]]}
//
// so operators can edit one file and reload the coordinator (SIGHUP,
// or the mtime poller) instead of restarting it. Changed is the cheap
// mtime/size check the poll loop uses to skip re-parsing an untouched
// file, with a content-hash fallback for rewrites that land within the
// filesystem's mtime granularity at the same size. Safe for concurrent
// use.
type FileTopology struct {
	Path string

	mu    sync.Mutex
	mtime time.Time
	size  int64
	hash  [sha256.Size]byte
}

// NewFileTopology returns a file-backed topology source for path.
func NewFileTopology(path string) *FileTopology { return &FileTopology{Path: path} }

// Resolve implements Topology: it reads and parses the file, and
// records the file's stat so Changed can compare against it.
func (f *FileTopology) Resolve() (TopologyView, error) {
	raw, err := os.ReadFile(f.Path)
	if err != nil {
		return TopologyView{}, fmt.Errorf("shard: topology file: %w", err)
	}
	var v TopologyView
	if err := json.Unmarshal(raw, &v); err != nil {
		return TopologyView{}, fmt.Errorf("shard: topology file %s: %w", f.Path, err)
	}
	if err := v.Validate(); err != nil {
		return TopologyView{}, fmt.Errorf("%w (in %s)", err, f.Path)
	}
	if st, err := os.Stat(f.Path); err == nil {
		f.mu.Lock()
		f.mtime, f.size, f.hash = st.ModTime(), st.Size(), sha256.Sum256(raw)
		f.mu.Unlock()
	}
	return v, nil
}

// Changed reports whether the file differs from the last successful
// Resolve — the signal the poll loop acts on. The fast path compares
// mtime and size from one stat; when both match, the content hash
// breaks the tie, because a rewrite landing within the filesystem's
// mtime granularity at the same byte count (two same-length endpoint
// URLs swapped by a deploy script) is otherwise invisible and the
// coordinator would serve the stale topology until an unrelated edit.
// A stat or read error is returned so a vanished file is visible
// rather than silently "unchanged".
func (f *FileTopology) Changed() (bool, error) {
	st, err := os.Stat(f.Path)
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	mtime, size, hash := f.mtime, f.size, f.hash
	f.mu.Unlock()
	if !st.ModTime().Equal(mtime) || st.Size() != size {
		return true, nil
	}
	raw, err := os.ReadFile(f.Path)
	if err != nil {
		return false, err
	}
	return sha256.Sum256(raw) != hash, nil
}

// Dialer turns one replica spec into a client. shard and replica are
// the spec's position in the view, so a dialer can build partition
// stores for "local" specs. The coordinator wraps the returned client
// in its own per-replica ResilientClient (unless WithoutResilience);
// dialers should return the bare transport.
type Dialer func(shard, replica int, spec string) (endpoint.Client, error)
