package sparql

import (
	"fmt"
	"testing"

	"re2xolap/internal/rdf"
)

// BenchmarkMergeFinalizeLimit times the coordinator's finalize of an
// ORDER BY … LIMIT query over 2 000 merged rows, keeping a twentieth
// and a quarter of them. ?v repeats every 50 rows and ?l every 13, so
// about three rows share each pair of order keys and the canonical
// tie-break gets exercised.
func BenchmarkMergeFinalizeLimit(b *testing.B) {
	const n = 2000
	rows := make([][]rdf.Term, n)
	for i := range rows {
		rows[i] = []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://bench/obs/%05d", (i*7919)%n)),
			rdf.NewInteger(int64(i % 50)),
			rdf.NewString(fmt.Sprintf("label %d", i%13)),
		}
	}
	for _, k := range []int{n / 20, n / 4} {
		q, err := Parse(fmt.Sprintf(`SELECT ?o ?v ?l WHERE { ?o <http://bench/v> ?v . ?o <http://bench/l> ?l } ORDER BY DESC(?v) ?l LIMIT %d`, k))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			in := make([][]rdf.Term, n)
			for i := 0; i < b.N; i++ {
				copy(in, rows)
				res := &Results{Vars: []string{"o", "v", "l"}, Rows: in}
				MergeFinalize(q, res)
				if len(res.Rows) != k {
					b.Fatalf("kept %d rows, want %d", len(res.Rows), k)
				}
			}
		})
	}
}

// BenchmarkPartialAggMerge times PartialAggPlan.Merge over the shape of
// an ExRef session step at three shards: 1 961 shard rows folding into
// 1 883 groups of a three-level key, with a SUM and a COUNT partial per
// row.
func BenchmarkPartialAggMerge(b *testing.B) {
	const groups, rows, shards = 1883, 1961, 3
	q, err := Parse(`SELECT ?a ?b ?c (SUM(?v) AS ?total) (COUNT(?v) AS ?n) WHERE { ?o <http://bench/a> ?a . ?o <http://bench/b> ?b . ?o <http://bench/c> ?c . ?o <http://bench/v> ?v } GROUP BY ?a ?b ?c`)
	if err != nil {
		b.Fatal(err)
	}
	p, ok := PlanPartialAggregation(q)
	if !ok {
		b.Fatal("not decomposable")
	}
	vars := make([]string, len(p.ShardQuery().Select))
	for i, it := range p.ShardQuery().Select {
		vars[i] = it.Var
	}
	results := make([]*Results, shards)
	for i := range results {
		results[i] = &Results{Vars: vars}
	}
	member := func(level string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://bench/%s/%d", level, i))
	}
	for r := 0; r < rows; r++ {
		g := r % groups // the last 78 rows repeat a group on another shard
		results[r%shards].Rows = append(results[r%shards].Rows, []rdf.Term{
			member("a", g%7), member("b", g/7%23), member("c", g/161),
			rdf.NewInteger(int64(100 + r)), rdf.NewInteger(int64(1 + r%3)),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := p.Merge(results)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != groups {
			b.Fatalf("merged %d groups, want %d", len(res.Rows), groups)
		}
	}
}
