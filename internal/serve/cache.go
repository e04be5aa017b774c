package serve

import (
	"strconv"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
)

// cachedAnswer is one result-cache occupant: the shared (immutable by
// contract) result set plus the execution metadata template hits are
// derived from. The same pointer serves every hit, which is what makes
// cached answers byte-identical to the original execution.
type cachedAnswer struct {
	res  *sparql.Results
	meta endpoint.QueryMeta
}

// cacheKey builds the result-cache key: canonical query text scoped by
// the store generation, so a mutation (which advances the generation)
// orphans every entry cached under the old one — natural invalidation
// with no cross-process coordination. Orphaned entries age out of the
// LRU.
func cacheKey(canonical string, gen uint64) string {
	return strconv.FormatUint(gen, 36) + "\x00" + canonical
}
