package sparql

import (
	"cmp"
	"math/bits"
	"slices"

	"re2xolap/internal/rdf"
)

// orderScope is q's ORDER BY keys in SPARQL's scope (§18.2.5), which
// orders solutions before projection: a key reads any variable of the
// solution, an alias stands for its expression (not resolved further,
// as the projection does not chain aliases) and, in a grouped query
// (idx, collectAggs' index), an aggregate for its aggRef.
func orderScope(q *Query, idx map[string]int) []Expr {
	alias := func(x Expr) (Expr, bool) {
		v, ok := x.(VarExpr)
		i := slices.IndexFunc(q.Select, func(it SelectItem) bool { return ok && it.Var == v.Name && it.Expr != nil })
		if i < 0 {
			return nil, false
		}
		return q.Select[i].Expr, true
	}
	keys := make([]Expr, len(q.OrderBy))
	for i, o := range q.OrderBy {
		keys[i] = resolveAggregates(mapExpr(o.Expr, alias), idx)
	}
	return keys
}

// orderKeys compiles ORDER BY keys with c, once per query. A key that
// is an aggregate reads its number, so a group's pending COUNT, SUM or
// AVG orders without being rendered.
func (c compiler) orderKeys(keys []Expr) []evalFn {
	fns := make([]evalFn, len(keys))
	for i, e := range keys {
		fns[i] = c.number(e)
	}
	return fns
}

// orderValues evaluates the compiled keys of n rows, row i as at(i)
// gives it: row i's keys start at keys[i*len(fns)]. A key that errors
// sorts as unbound; a bound key carries its numeric value, parsed here
// once rather than in every comparison.
func orderValues(fns []evalFn, n int, at func(i int) (*executor, row, []rdf.Term)) []Value {
	if len(fns) == 0 {
		return nil
	}
	keys := make([]Value, n*len(fns))
	for i := range n {
		ex, r, t := at(i)
		for j, f := range fns {
			v, err := f(ex, r, t)
			switch {
			case err != nil:
				continue
			case v.Bound && v.numState == 0:
				v = constValue(v.Term)
			}
			keys[i*len(fns)+j] = v
		}
	}
	return keys
}

// orderCmp compares two rows' ORDER BY keys: negative when a sorts
// first, zero when no key tells them apart.
func orderCmp(order []OrderKey, a, b []Value) int {
	for k, o := range order {
		if c := orderCompare(a[k], b[k]); c != 0 {
			if o.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// solutions is what a stage that holds solutions — project over ID
// rows, emit over groups, the bound join over joined term rows,
// MergeFinalize over projected lines — hands the one finish: n
// solutions under the columns vars, their ORDER BY keys (row i's at
// keys[i*len(q.OrderBy)]), line, which gives one row's projected line,
// and lines, which renders the lines of the rows at perm in one batch
// (nil: line by line). A line is rendered only when finish reads it or
// the answer keeps its row.
type solutions struct {
	vars  []string
	n     int
	keys  []Value
	line  func(i int) []rdf.Term
	lines func(perm []int) [][]rdf.Term
}

// termSolutions is the solutions of term rows, which c compiles the
// keys against and cells projects, each line at most once; with cells
// nil the rows are the lines.
func termSolutions(c compiler, keys []Expr, rows [][]rdf.Term, vars []string, cells []evalFn) *solutions {
	lines := rows
	if cells != nil {
		lines = make([][]rdf.Term, len(rows))
	}
	line := func(i int) []rdf.Term {
		if cells != nil && lines[i] == nil {
			lines[i] = make([]rdf.Term, len(cells))
			for j, cell := range cells {
				if v, err := cell(nil, nil, rows[i]); err == nil && v.Bound {
					lines[i][j] = v.Term
				}
			}
		}
		return lines[i]
	}
	return &solutions{
		vars: vars, n: len(rows), line: line,
		keys: orderValues(c.orderKeys(keys), len(rows), func(i int) (*executor, row, []rdf.Term) {
			return nil, nil, rows[i]
		}),
	}
}

// finish is the one body of the solution modifiers: ORDER BY on the
// keys, DISTINCT keeping the first row of each projected line, OFFSET
// and LIMIT, then the answer's lines. Key ties break by position when
// stable (a stable sort's order, the single node's rule), else by the
// lines in CanonicalRowKey order (compareRows), the coordinator's rule,
// which no arrival order changes; without ORDER BY that alone orders a
// canonical answer. Only the rows a cut keeps are sorted (cutSize,
// firstRows); the order is total up to interchangeable rows, so the
// answer is a full sort's.
func (s *solutions) finish(q *Query, stable bool) *Results {
	k := len(q.OrderBy)
	perm := make([]int, s.n)
	for i := range perm {
		perm[i] = i
	}
	if k > 0 || !stable {
		perm = firstRows(perm, cutSize(q, s.n), func(i, j int) int {
			if c := orderCmp(q.OrderBy, s.keys[i*k:], s.keys[j*k:]); c != 0 {
				return c
			}
			if stable {
				return cmp.Compare(i, j)
			}
			return compareRows(s.line(i), s.line(j))
		})
	}
	if q.Distinct {
		seen := map[string]struct{}{} // few distinct lines are common: grow it
		perm = slices.DeleteFunc(perm, func(i int) bool {
			key := CanonicalRowKey(s.line(i))
			_, dup := seen[key]
			seen[key] = struct{}{}
			return dup
		})
	}
	perm = window(q, perm)
	if s.lines != nil {
		return &Results{Vars: s.vars, Rows: s.lines(perm)}
	}
	rows := make([][]rdf.Term, len(perm))
	for i, p := range perm {
		rows[i] = s.line(p)
	}
	return &Results{Vars: s.vars, Rows: rows}
}

// MergeFinalize applies the query's solution modifiers to the projected
// lines a colocated union merged from the shards (or a gather answer
// with no ORDER BY), in place: finish with the canonical tie-break.
// Over the lines the keys compile as written, each name a column: the
// coordinator sends a query here only when every variable its ORDER BY
// reads is an output column, so the keys are exact.
func MergeFinalize(q *Query, res *Results) {
	if res.IsAsk || res.IsConstruct {
		return
	}
	keys := make([]Expr, len(q.OrderBy))
	for i, o := range q.OrderBy {
		keys[i] = o.Expr
	}
	res.Rows = termSolutions(termCompiler(res.Vars), keys, res.Rows, res.Vars, nil).finish(q, false).Rows
}

// cutSize is the number of leading rows of an ordered answer of n rows
// that OFFSET and LIMIT can keep: OFFSET + LIMIT for a query with a
// LIMIT and no DISTINCT (DISTINCT has to see every row before it knows
// which come first), n otherwise.
func cutSize(q *Query, n int) int {
	offset := max(q.Offset, 0)
	if q.Distinct || q.Limit < 0 || q.Limit >= n || offset >= n-q.Limit {
		return n
	}
	return offset + q.Limit
}

// firstRows is the ordered-LIMIT kernel: of the row positions perm, it
// returns the first keep in the order compare puts positions in,
// reordering perm. compare must be a total order up to interchangeable
// rows, so the answer does not depend on which of two tied rows the
// selection meets first. It partitions around the cut in expected O(n)
// and sorts only the kept positions.
func firstRows(perm []int, keep int, compare func(i, j int) int) []int {
	lo, hi := 0, len(perm)
	// Invariant: perm[:lo] <= perm[lo:hi] <= perm[hi:] and lo <= keep <= hi.
	// Past the depth budget (an adversarial pivot sequence) or on a
	// short range the rest is sorted, so the worst case is O(n log n).
	for budget := 2 * bits.Len(uint(hi)); lo < keep && keep < hi; budget-- {
		if budget == 0 || hi-lo <= 16 {
			slices.SortFunc(perm[lo:hi], compare)
			break
		}
		lt, gt := partition3(perm[lo:hi], compare)
		switch lt, gt = lo+lt, lo+gt; {
		case keep < lt:
			hi = lt
		case keep > gt:
			lo = gt
		default:
			// perm[lt:gt] all tie with the pivot: any of them may be kept.
			lo = keep
		}
	}
	perm = perm[:keep]
	slices.SortFunc(perm, compare)
	return perm
}

// partition3 splits p around the median of its first, middle and last
// entries: p[:lt] sorts before that pivot, p[lt:gt] ties with it and
// p[gt:] sorts after it.
func partition3(p []int, compare func(i, j int) int) (lt, gt int) {
	a, pivot, c := p[0], p[len(p)/2], p[len(p)-1]
	if compare(a, pivot) > 0 {
		a, pivot = pivot, a
	}
	if compare(pivot, c) > 0 {
		pivot = c
		if compare(a, pivot) > 0 {
			pivot = a
		}
	}
	lt, gt = 0, len(p)
	for i := 0; i < gt; {
		switch c := compare(p[i], pivot); {
		case c < 0:
			p[lt], p[i] = p[i], p[lt]
			lt++
			i++
		case c > 0:
			gt--
			p[i], p[gt] = p[gt], p[i]
		default:
			i++
		}
	}
	return lt, gt
}

// pick returns the rows at positions perm, in that order.
func pick[T any](rows []T, perm []int) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
}

// window applies OFFSET and LIMIT to an ordered answer.
func window[T any](q *Query, xs []T) []T {
	if q.Offset > 0 {
		if q.Offset >= len(xs) {
			return nil
		}
		xs = xs[q.Offset:]
	}
	if q.Limit >= 0 && q.Limit < len(xs) {
		xs = xs[:q.Limit]
	}
	return xs
}
