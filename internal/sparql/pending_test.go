package sparql

import (
	"fmt"
	"sort"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/store"
)

// TestPendingWritesAnswerLikeCompacted: a store whose triples all sit
// in the pending layers (sorted runs and the unsorted tail) answers
// the determinism corpus exactly as it does once Compact has merged
// them into the base, up to the row order the language leaves open.
// Queries whose answer legitimately depends on scan order (a bare
// LIMIT, SAMPLE, GROUP_CONCAT) are left out.
func TestPendingWritesAnswerLikeCompacted(t *testing.T) {
	st := store.New()
	for _, tr := range corpus.Triples() {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.DeltaSize != s.Triples || s.Triples == 0 {
		t.Fatalf("test setup: %d of %d triples pending", s.DeltaSize, s.Triples)
	}
	render := func(res *Results) []string {
		var out []string
		switch {
		case res.IsAsk:
			out = append(out, fmt.Sprint(res.Boolean))
		case res.IsConstruct:
			for _, tr := range res.Triples {
				out = append(out, tr.String())
			}
		default:
			for _, r := range res.Rows {
				out = append(out, CanonicalRowKey(r))
			}
		}
		sort.Strings(out)
		return out
	}
	engine := NewEngine(st)
	pending := map[string][]string{}
	for _, cq := range corpus.Queries() {
		if cq.EngineCompare == "skip" {
			continue
		}
		res, err := engine.QueryString(cq.Query)
		if err != nil {
			t.Fatalf("%s with pending writes: %v", cq.Name, err)
		}
		pending[cq.Name] = render(res)
	}
	st.Compact()
	for _, cq := range corpus.Queries() {
		want, ok := pending[cq.Name]
		if !ok {
			continue
		}
		res, err := engine.QueryString(cq.Query)
		if err != nil {
			t.Fatalf("%s after Compact: %v", cq.Name, err)
		}
		got := render(res)
		if len(got) != len(want) {
			t.Errorf("%s: %d rows after Compact, %d with pending writes", cq.Name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: row %d is %q after Compact, %q with pending writes", cq.Name, i, got[i], want[i])
				break
			}
		}
	}
}
