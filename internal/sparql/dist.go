package sparql

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"re2xolap/internal/rdf"
)

// Distributed-execution support: the helpers internal/shard needs to
// merge per-shard partial results into one canonical result set.
//
// The coordinator's determinism contract is *topology independence*:
// for a fixed dataset, the merged result is a pure function of the
// query and the union of the shards' triples, regardless of how many
// shards the data is split across. A single store has a natural row
// order (its join emission order); a federation does not, so wherever
// the language leaves order unspecified the coordinator imposes a
// canonical one (the canonical tie-break of finish). Everything here
// lives in package sparql because it reuses the executor's value
// semantics — orderLess, numValue, expression evaluation — which is
// exactly what makes the merged output byte-compatible with a 1-shard
// topology.

// CanonicalRowKey serializes a result row into a byte-comparable key.
// Its order is the tie-break (and, absent ORDER BY, the entire sort
// order) the coordinator uses to give merged results a deterministic
// order; finish compares rows in that order without building the keys
// (compareRows).
func CanonicalRowKey(row []rdf.Term) string {
	var b strings.Builder
	for _, t := range row {
		if Bound(t) {
			b.WriteString(t.String())
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// compareRows orders two rows as strings.Compare orders their
// CanonicalRowKeys, without building either: cell by cell, an unbound
// cell before a bound one, bound cells as compareTerms orders them. It
// agrees with the keys wherever the keys are sound: no term holds a NUL
// byte (NUL then sorts below every byte of a rendering, so a cell that
// is a strict prefix of another sorts first either way).
func compareRows(a, b []rdf.Term) int {
	for i := range min(len(a), len(b)) {
		if c := compareTerms(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareTerms orders two terms as strings.Compare orders their
// renderings in CanonicalRowKey — Term.String(), nothing for an unbound
// term — a piece at a time and without allocating.
func compareTerms(a, b rdf.Term) int {
	if a == b {
		return 0
	}
	var x, y termText
	x.init(a)
	y.init(b)
	for {
		xok, yok := x.next(), y.next()
		if !xok || !yok {
			return cmp.Compare(b2i(xok), b2i(yok))
		}
		n := min(len(x.cur), len(y.cur))
		if c := strings.Compare(x.cur[:n], y.cur[:n]); c != 0 {
			return c
		}
		x.cur, y.cur = x.cur[n:], y.cur[n:]
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// termText walks the bytes of Term.String() piece by piece: the
// delimiters, the value, the language or datatype suffix, and — when a
// literal's value has a character to escape — the value's runs and
// escapes as escapeLiteral writes them.
type termText struct {
	parts [6]string
	n, i  int
	esc   bool   // parts[1] is a literal value to escape
	cur   string // the unread bytes of the current piece
	body  string // the unread source of the escaped value
}

func (w *termText) init(t rdf.Term) {
	switch {
	case !Bound(t):
	case t.Kind == rdf.TermIRI:
		w.parts[0], w.parts[1], w.parts[2], w.n = "<", t.Value, ">", 3
	case t.Kind == rdf.TermBlank:
		w.parts[0], w.parts[1], w.n = "_:", t.Value, 2
	default:
		w.parts[0], w.parts[1], w.parts[2], w.n = `"`, t.Value, `"`, 3
		w.esc = strings.ContainsAny(t.Value, "\"\\\n\r\t")
		if t.Lang != "" {
			w.parts[3], w.parts[4], w.n = "@", t.Lang, 5
		} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
			w.parts[3], w.parts[4], w.parts[5], w.n = "^^<", t.Datatype, ">", 6
		}
	}
}

// next makes cur non-empty, reporting false at the end of the text.
func (w *termText) next() bool {
	for w.cur == "" {
		switch {
		case w.body != "":
			w.cur, w.body = escapeRun(w.body)
		case w.i == w.n:
			return false
		case w.i == 1 && w.esc:
			w.body = w.parts[1]
			w.i++
		default:
			w.cur = w.parts[w.i]
			w.i++
		}
	}
	return true
}

// escapeRun splits off the head of a literal value as escapeLiteral
// renders it: one escape, the replacement character an invalid byte
// becomes, or the longest run written as it is.
func escapeRun(s string) (head, rest string) {
	switch s[0] {
	case '"':
		return `\"`, s[1:]
	case '\\':
		return `\\`, s[1:]
	case '\n':
		return `\n`, s[1:]
	case '\r':
		return `\r`, s[1:]
	case '\t':
		return `\t`, s[1:]
	}
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t' {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	if i == 0 {
		return string(utf8.RuneError), s[1:]
	}
	return s[:i], s[i:]
}

// partialCols names the shard-result columns carrying one aggregate's
// partial state (cnt is the AVG count column, empty otherwise).
type partialCols struct{ val, cnt string }

// partialColPrefix names the synthetic shard-query columns. It shares
// the engine's internal-variable namespace conventions but must not
// collide with internalVarPrefix ("_path"), which SELECT * excludes.
const partialColPrefix = "_sg"

// PartialAggPlan is a decomposed GROUP BY query: ShardQuery pushes
// partial aggregation down to each shard, Merge combines the shards'
// partial states and finalizes HAVING, the projection and the solution
// modifiers.
type PartialAggPlan struct {
	// spec is the original query's aggregate spec with vars set to the
	// GROUP BY variables and every SAMPLE replaced by the MIN it is
	// pushed down as, so shard states merge and finalize as MIN.
	spec  *aggSpec
	shard *Query
	cols  []partialCols // per spec.aggs entry
}

// ShardQuery returns the rewritten per-shard query. Callers must not
// mutate it.
func (p *PartialAggPlan) ShardQuery() *Query { return p.shard }

// PlanPartialAggregation decomposes an aggregate query into per-shard
// partial aggregation plus a coordinator merge. It reports ok = false
// for shapes whose partial states do not merge exactly (or not
// deterministically across topologies):
//
//   - any DISTINCT aggregate (needs a global dedup set),
//   - GROUP_CONCAT (concatenation order depends on per-shard row
//     order, which varies with the topology),
//   - plain variables projected (or used in HAVING/ORDER BY
//     expressions) without appearing in GROUP BY — the engine
//     resolves them from a representative row, which is
//     topology-dependent.
//
// SAMPLE is decomposed as MIN: the language lets SAMPLE return any
// group member, and the least member is the only choice every
// topology agrees on. AVG decomposes into (SUM, COUNT) pairs whose
// count column counts exactly the values the sum column summed.
func PlanPartialAggregation(q *Query) (*PartialAggPlan, bool) {
	if q.Ask || q.Construct != nil || !q.IsAggregate() || q.Star {
		return nil, false
	}
	spec := newAggSpec(q)
	for _, a := range spec.aggs {
		if a.Distinct || a.Fn == "GROUP_CONCAT" {
			return nil, false
		}
	}
	// Every non-aggregated variable reaching the output or an ORDER BY
	// key must be a GROUP BY key, or its value would come from a
	// topology-dependent representative row.
	for _, v := range spec.vars {
		if !slices.Contains(q.GroupBy, v) {
			return nil, false
		}
	}
	spec.vars = q.GroupBy

	p := &PartialAggPlan{spec: spec, cols: make([]partialCols, len(spec.aggs))}
	shard := &Query{
		Where:   q.Where,
		GroupBy: q.GroupBy,
		Limit:   -1,
	}
	for _, v := range q.GroupBy {
		shard.Select = append(shard.Select, SelectItem{Var: v})
	}
	for i, a := range spec.aggs {
		push := func(suffix string, e AggExpr) string {
			col := fmt.Sprintf("%s%d_%s", partialColPrefix, i, suffix)
			shard.Select = append(shard.Select, SelectItem{Var: col, Expr: e})
			return col
		}
		c := &p.cols[i]
		switch a.Fn {
		case "COUNT":
			c.val = push("n", a)
		case "SUM":
			c.val = push("sum", a)
		case "AVG":
			c.val = push("sum", AggExpr{Fn: "SUM", Arg: a.Arg})
			// arg + 0 evaluates exactly when SUM's Value.numeric() does
			// (ISNUMERIC would also pass an ill-formed numeric literal).
			c.cnt = push("cnt", AggExpr{Fn: "COUNT", Arg: BinaryExpr{Op: "+", L: a.Arg, R: ConstExpr{Term: rdf.NewInteger(0)}}})
		case "MIN":
			c.val = push("min", a)
		case "MAX":
			c.val = push("max", a)
		case "SAMPLE":
			spec.aggs[i] = AggExpr{Fn: "MIN", Arg: a.Arg}
			spec.ops[i].kind = aggMin
			c.val = push("smp", spec.aggs[i])
		default:
			return nil, false
		}
	}
	spec.plan() // over the new key columns and SAMPLE's MIN
	p.shard = shard
	return p, true
}

// Merge combines per-shard partial-aggregate results (one *Results
// per shard, in shard order; nil entries — failed shards in degraded
// mode — are skipped) into the final result rows: each shard row loads
// into a partial state that merges into its group, then groups
// finalize and emit as on a single node, with the solution modifiers
// breaking ties canonically, so the answer is final.
//
// Groups are found by integers, not by rendered keys: every key cell
// is interned once, the distinct terms are ranked by their rendering
// (canonicalRanks), and a row's group key is its cells' ranks. Groups,
// their key terms and their partial states are carved from slabs sized
// by the shard rows in hand.
func (p *PartialAggPlan) Merge(shardResults []*Results) (*Results, error) {
	type shardIn struct {
		rows    [][]rdf.Term
		keyCols []int
		cols    [][2]int
	}
	var ins []shardIn
	total := 0
	for _, sr := range shardResults {
		if sr == nil {
			continue
		}
		keyCols, cols, err := p.shardColumns(sr)
		if err != nil {
			return nil, err
		}
		ins = append(ins, shardIn{sr.Rows, keyCols, cols})
		total += len(sr.Rows)
	}
	nk, nops := len(p.spec.vars), len(p.spec.ops)
	ids := map[rdf.Term]uint32{}
	var terms []rdf.Term
	cells := make([]uint32, 0, total*nk)
	for _, in := range ins {
		for _, r := range in.rows {
			for _, c := range in.keyCols {
				id, ok := ids[r[c]]
				if !ok {
					id = uint32(len(terms))
					ids[r[c]] = id
					terms = append(terms, r[c])
				}
				cells = append(cells, id)
			}
		}
	}
	// A row's group key is its cells' ranks, big-endian, so that the
	// keys sort as the rank tuples do; one string holds every row's key.
	rank := canonicalRanks(terms)
	kb := make([]byte, 0, 4*len(cells))
	for _, id := range cells {
		kb = binary.BigEndian.AppendUint32(kb, rank[id])
	}
	keys, w := string(kb), 4*nk

	t := &aggTable{order: make([]string, 0, total), groups: make(map[string]*aggGroup, total)}
	groups := make([]aggGroup, total)
	keySlab := make([]rdf.Term, total*nk)
	partSlab := make([]aggPartial, total*nops)
	next := 0 // the row's position in keys
	for _, in := range ins {
		for _, r := range in.rows {
			k := keys[next*w : (next+1)*w]
			next++
			g, ok := t.groups[k]
			if !ok {
				n := len(t.order)
				g = &groups[n]
				g.key = keySlab[n*nk : (n+1)*nk : (n+1)*nk]
				for i, c := range in.keyCols {
					g.key[i] = r[c]
				}
				g.parts = partSlab[n*nops : (n+1)*nops : (n+1)*nops]
				t.put(k, g)
			}
			for ai := range p.spec.ops {
				op := &p.spec.ops[ai]
				src, err := loadPartial(op, r[in.cols[ai][0]], r[in.cols[ai][1]])
				if err != nil {
					return nil, err
				}
				g.parts[ai].merge(op, &src)
			}
		}
	}
	// Canonical key order: lines usually start with the group's keys, so
	// this cheap sort leaves the finish's compareRows little to sort.
	sort.Strings(t.order)
	return p.spec.emit(t, func() error { return nil }, false)
}

// canonicalRanks ranks distinct terms by their CanonicalRowKey cell,
// each rendered once: Term.String(), nothing for an unbound term.
// Terms with one rendering — an xsd:string literal and its plain twin —
// share a rank, so rank tuples compare as CanonicalRowKeys do (with
// compareRows' proviso: no term holds a NUL byte).
func canonicalRanks(terms []rdf.Term) []uint32 {
	text := make([]string, len(terms))
	byText := make([]int, len(terms))
	for i, t := range terms {
		if Bound(t) {
			text[i] = t.String()
		}
		byText[i] = i
	}
	slices.SortFunc(byText, func(a, b int) int { return strings.Compare(text[a], text[b]) })
	rank := make([]uint32, len(terms))
	r := uint32(0)
	for i, id := range byText {
		if i > 0 && text[id] != text[byText[i-1]] {
			r++
		}
		rank[id] = r
	}
	return rank
}

// shardColumns maps the plan's columns into one shard result's
// layout: the GROUP BY columns, and per aggregate its value and count
// columns (the value column again where there is no count column).
func (p *PartialAggPlan) shardColumns(sr *Results) (keyCols []int, cols [][2]int, err error) {
	find := func(name string) int {
		i := sr.Column(name)
		if i < 0 && err == nil {
			err = fmt.Errorf("sparql: shard result missing column ?%s", name)
		}
		return i
	}
	for _, v := range p.spec.vars {
		keyCols = append(keyCols, find(v))
	}
	for _, c := range p.cols {
		val := find(c.val)
		cnt := val
		if c.cnt != "" {
			cnt = find(c.cnt)
		}
		cols = append(cols, [2]int{val, cnt})
	}
	return keyCols, cols, err
}
