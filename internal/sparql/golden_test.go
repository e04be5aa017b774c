package sparql

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"re2xolap/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenExtra adds the lexer's and parser's corners the corpus does not
// reach: prologues, literal forms, paths, nested queries, templates and
// one query per syntax error the lexer or the parser reports.
var goldenExtra = []probeShape{
	{"prefix", `PREFIX ex: <http://e/> PREFIX d: <http://d/> SELECT ?s WHERE { ?s ex:p d:o . ?s a ex:C . ?s d: ex:_x-1 }`},
	{"prefix-redeclared", `PREFIX ex: <http://e/> PREFIX ex: <http://f/> ASK { ?s ex:p ?o }`},
	{"prefix-subselect", `PREFIX ex: <http://e/> SELECT ?s WHERE { { SELECT ?s WHERE { ?s ex:p ?o } } ?s ex:q ?v }`},
	{"literals", `SELECT ?s WHERE { ?s <http://p> "a\"b\\c\nd\te\rf\qg" . ?s <http://q> 'single'@en-GB . ?s <http://r> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . ?s <http://n> -1.5e3 . ?s <http://m> +42 . ?s <http://b> true . ?s <http://c> FALSE }`},
	{"numbers", `SELECT ?s WHERE { ?s <http://p> ?o FILTER (?o > .5 && ?o < 3. && ?o != 2E+2 && ?o >= -7 && ?o <= 1.) }`},
	{"comments", "SELECT ?s # a comment\nWHERE { ?s ?p ?o # another\n}"},
	{"dollar-vars", `SELECT $s WHERE { $s ?p $o }`},
	{"paths", `SELECT ?a ?d WHERE { ?a <http://p>/^<http://q>/<http://r> ?d . ?d <http://k>+ ?e . ?e ^<http://k>* ?f . ?a <http://x>/<http://y>+/<http://z> ?g }`},
	{"paths-numbering", `SELECT ?a WHERE { ?a <http://p>/<http://q> ?b . { SELECT ?b WHERE { ?b <http://r>/<http://s> ?c } } ?b <http://t>/<http://u> ?c }`},
	{"predicate-object-lists", `SELECT ?s WHERE { ?s <http://p> ?a, ?b ; <http://q> ?c ; . ?s a <http://C> ; }`},
	{"select-exprs", `SELECT DISTINCT ?s (STR(?o) AS ?t) (CONCAT(?a, "-", LCASE(?b)) AS ?u) WHERE { ?s ?p ?o }`},
	{"bare-aggregates", `SELECT ?g COUNT(*) SUM(?v) AVG(?v + 1) GROUP_CONCAT(DISTINCT ?v ; SEPARATOR = "|") WHERE { ?s ?p ?v } GROUP BY ?g`},
	{"having-order", `SELECT ?g (MAX(?v) AS ?m) WHERE { ?s ?p ?v } GROUP BY ?g HAVING (COUNT(?v) > 2) (SUM(?v) < 10) ORDER BY DESC(?m) ?g STR(?g) LIMIT 10 OFFSET 5`},
	{"filters", `SELECT ?s WHERE { ?s ?p ?o FILTER (?o IN (1, 2, "x")) FILTER (?o NOT IN (3)) FILTER (!BOUND(?z) || ISIRI(?s)) FILTER REGEX(STR(?o), "^a", "i") FILTER (-?o * 2 / 3 + +4 - 5 = 0) }`},
	{"exists", `SELECT ?s WHERE { ?s ?p ?o FILTER NOT EXISTS { ?s <http://q> ?z FILTER (?z > 1) } FILTER EXISTS { ?o ?q ?s } }`},
	{"bind-values", `SELECT * WHERE { VALUES (?a ?b) { (<http://x> 1) (UNDEF "y") } BIND (COALESCE(?a, ?b) AS ?c) . VALUES ?d { <http://z> } }`},
	{"optional-union", `SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s <http://l> ?l FILTER (LANG(?l) = "en") } { ?s <http://a> ?x } UNION { ?s <http://b> ?x } UNION { ?s <http://c> ?x FILTER (?x > 0) } { ?s <http://d> ?y } }`},
	{"construct", `CONSTRUCT { ?s <http://p> ?o . ?o <http://q> "lit" } WHERE { ?s <http://r> ?o } LIMIT 3`},
	{"reduced-star", `SELECT REDUCED * WHERE { ?s <http://p>/<http://q> ?o }`},
	{"funcs", `SELECT ?s WHERE { ?s ?p ?o FILTER (IF(STRLEN(?o) > 2, SUBSTR(?o, 1, 2), REPLACE(?o, "a", "b")) = STRBEFORE(?o, "x")) FILTER (ABS(ROUND(FLOOR(CEIL(?o)))) = 1) FILTER (STRSTARTS(UCASE(?o), "A") && STRENDS(?o, "z") && ISNUMERIC(?o) && !ISBLANK(?o) && ISLITERAL(?o) && ISURI(?s) && DATATYPE(?o) = <http://t>) FILTER (STRAFTER(?o, "y") != "") }`},
	{"err-empty-var", `SELECT ? WHERE { ?s ?p ?o }`},
	{"err-unterminated-string", `SELECT ?s WHERE { ?s ?p "abc }`},
	{"err-datatype", `SELECT ?s WHERE { ?s ?p "1"^^xsd:int }`},
	{"err-datatype-iri", `SELECT ?s WHERE { ?s ?p "1"^^<http://a b> }`},
	{"err-single-amp", `SELECT ?s WHERE { ?s ?p ?o FILTER (?o & ?s) }`},
	{"err-single-bar", `SELECT ?s WHERE { ?s <http://a>|<http://b> ?o }`},
	{"err-char", `SELECT ?s WHERE { ?s ?p ?o } @`},
	{"err-unknown-prefix", `SELECT ?s WHERE { ?s ex:p ?o }`},
	{"err-prefix-decl", `PREFIX ex <http://e/> SELECT ?s WHERE { ?s ?p ?o }`},
	{"err-prefix-iri", `PREFIX ex: ex: SELECT ?s WHERE { ?s ?p ?o }`},
	{"err-form", `DESCRIBE ?s WHERE { ?s ?p ?o }`},
	{"err-trailing", `SELECT ?s WHERE { ?s ?p ?o } }`},
	{"err-empty-select", `SELECT WHERE { ?s ?p ?o }`},
	{"err-predicate", `SELECT ?s WHERE { ?s "p" ?o }`},
	{"err-term", `SELECT ?s WHERE { ?s ?p }`},
	{"err-unterminated-group", `SELECT ?s WHERE { ?s ?p ?o `},
	{"err-arity", `SELECT ?s WHERE { ?s ?p ?o FILTER (STR(?o, ?s)) }`},
	{"err-aggregate-filter", `SELECT ?s WHERE { ?s ?p ?o FILTER (COUNT(?o) > 0) }`},
	{"err-closure-var", `SELECT ?s WHERE { ?s ?p+ ?o }`},
	{"err-seq-var", `SELECT ?s WHERE { ?s <http://a>/?p ?o }`},
	{"err-values-row", `SELECT ?s WHERE { VALUES (?a ?b) { (1) } }`},
	{"err-values-unterminated", `SELECT ?s WHERE { VALUES ?a { 1 2 `},
	{"err-limit", `SELECT ?s WHERE { ?s ?p ?o } LIMIT ?x`},
	{"err-group-by", `SELECT ?s WHERE { ?s ?p ?o } GROUP ?s`},
	{"err-unsupported", `SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }`},
	{"err-optional-nested", `SELECT ?s WHERE { OPTIONAL { VALUES ?a { 1 } } }`},
	{"err-construct-path", `CONSTRUCT { ?s <http://a>/<http://b> ?o } WHERE { ?s ?p ?o }`},
	{"err-blank", `SELECT ?s WHERE { _:b ?p ?o }`},
	{"err-separator", `SELECT (GROUP_CONCAT(?o ; SEP = ",") AS ?c) WHERE { ?s ?p ?o }`},
	{"err-count-star", `SELECT (SUM(*) AS ?c) WHERE { ?s ?p ?o }`},
	{"err-as", `SELECT (?o ?c) WHERE { ?s ?p ?o }`},
	{"err-exists", `SELECT ?s WHERE { ?s ?p ?o FILTER (NOT BOUND(?o)) }`},
	{"err-empty-prefix", `PREFIX : <http://d/> SELECT ?s WHERE { ?s :p ?o }`},
	{"err-empty", ``},
}

// TestParseGolden pins what Parse makes of every corpus query, every
// probe shape and goldenExtra: the query Query.String prints back, or
// the syntax error with its offset. Run with -update to rewrite it.
func TestParseGolden(t *testing.T) {
	var cases []probeShape
	for _, c := range corpus.Queries() {
		cases = append(cases, probeShape{c.Name, c.Query})
	}
	cases = append(cases, probeShapes()...)
	cases = append(cases, goldenExtra...)
	var b strings.Builder
	for _, c := range cases {
		b.WriteString("=== " + c.name + "\n" + c.src + "\n---\n")
		if q, err := Parse(c.src); err != nil {
			b.WriteString("error: " + err.Error())
		} else {
			b.WriteString(q.String())
		}
		b.WriteString("\n\n")
	}
	path := filepath.Join("testdata", "parse.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("parse output differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("parse output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
