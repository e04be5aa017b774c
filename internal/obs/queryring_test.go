package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestQueryRingEviction(t *testing.T) {
	r := NewQueryRing(3)
	r.now = func() time.Time { return time.Unix(1700000000, 0) }
	for i := 0; i < 5; i++ {
		r.Record(QueryRecord{Query: strings.Repeat("q", i+1)})
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	snap := r.Snapshot()
	// Newest-first: queries of length 5, 4, 3.
	for i, wantLen := range []int{5, 4, 3} {
		if len(snap[i].Query) != wantLen {
			t.Errorf("snapshot[%d].Query len = %d, want %d", i, len(snap[i].Query), wantLen)
		}
	}
	if snap[0].Time == "" {
		t.Error("timestamp not filled")
	}
}

func TestQueryRingNilAndTruncation(t *testing.T) {
	var nilRing *QueryRing
	nilRing.Record(QueryRecord{Query: "x"}) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Len() != 0 {
		t.Error("nil ring not empty")
	}
	r := NewQueryRing(0) // defaults to 128
	r.Record(QueryRecord{Query: strings.Repeat("v", maxSlowQueryLen+100)})
	if q := r.Snapshot()[0].Query; !strings.HasSuffix(q, "...(truncated)") {
		t.Error("oversized query not truncated")
	}
}

func TestQueryRingHandler(t *testing.T) {
	r := NewQueryRing(4)
	r.Record(QueryRecord{
		Source: "server", Plan: "gather", Rows: 7, WallMS: 1.5,
		Shards: []ShardCall{{Shard: 0, Rows: 4, Attempts: 1}, {Shard: 1, Rows: 3, Attempts: 2, Retries: 1}},
		Query:  "SELECT * WHERE { ?s ?p ?o }",
	})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out []QueryRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Plan != "gather" || len(out[0].Shards) != 2 || out[0].Shards[1].Retries != 1 {
		t.Fatalf("unexpected payload: %+v", out)
	}

	var nilRing *QueryRing
	rec = httptest.NewRecorder()
	nilRing.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if rec.Code != 404 {
		t.Fatalf("nil ring status = %d, want 404", rec.Code)
	}
}
