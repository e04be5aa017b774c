package store

import (
	"slices"
	"sort"
	"strings"
	"unicode"
)

// fullText is an inverted keyword index over literal terms: each
// lower-cased token of a literal maps to the IDs of the literals that
// contain it. Searches tokenize the keyword, intersect posting lists,
// and verify the full phrase with a substring check, mirroring the
// "traditional full-text index" the paper configures in the triplestore
// for keyword-to-IRI resolution.
type fullText struct {
	postings map[string][]ID
	indexed  map[ID]struct{}
}

func newFullText() *fullText {
	return &fullText{postings: map[string][]ID{}, indexed: map[ID]struct{}{}}
}

// tokenizeText splits a literal value into lower-cased alphanumeric
// tokens.
func tokenizeText(s string) []string {
	var toks []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, strings.ToLower(s[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, strings.ToLower(s[start:]))
	}
	return toks
}

func (ft *fullText) add(id ID, value string) {
	if _, done := ft.indexed[id]; done {
		return
	}
	ft.indexed[id] = struct{}{}
	for _, tok := range distinctTokens(value) {
		ft.postings[tok] = append(ft.postings[tok], id)
	}
}

// distinctTokens returns the tokens of value once each, without a map
// per literal: a label's few tokens are checked against the ones kept
// before them, a long text's are sorted so a repeat sits next to itself.
func distinctTokens(value string) []string {
	toks := tokenizeText(value)
	if len(toks) > 16 {
		slices.Sort(toks)
		return slices.Compact(toks)
	}
	kept := toks[:0]
	for _, tok := range toks {
		if !slices.Contains(kept, tok) {
			kept = append(kept, tok)
		}
	}
	return kept
}

// search returns IDs of literals whose value contains the keyword
// case-insensitively. Posting lists narrow candidates; the dictionary
// verifies the actual substring match.
func (ft *fullText) search(keyword string, dict *Dict) []ID {
	kw := strings.ToLower(strings.TrimSpace(keyword))
	if kw == "" {
		return nil
	}
	toks := tokenizeText(kw)
	var candidates []ID
	switch len(toks) {
	case 0:
		return nil
	case 1:
		// Single token: accept literals holding any token that has the
		// keyword as a prefix or that contains it, so "german" finds
		// "Germany". Collect from every posting whose token contains kw.
		set := map[ID]struct{}{}
		for tok, ids := range ft.postings {
			if strings.Contains(tok, toks[0]) {
				for _, id := range ids {
					set[id] = struct{}{}
				}
			}
		}
		candidates = make([]ID, 0, len(set))
		for id := range set {
			candidates = append(candidates, id)
		}
	default:
		// Multi-token phrase: intersect exact posting lists, then verify
		// the phrase as a substring.
		lists := make([][]ID, 0, len(toks))
		for _, tok := range toks {
			ids, ok := ft.postings[tok]
			if !ok {
				return nil
			}
			lists = append(lists, ids)
		}
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		counts := map[ID]int{}
		for _, id := range lists[0] {
			counts[id] = 1
		}
		for _, list := range lists[1:] {
			for _, id := range list {
				if c, ok := counts[id]; ok && c < len(lists) {
					counts[id] = c + 1
				}
			}
		}
		for id, c := range counts {
			if c == len(lists) {
				if strings.Contains(strings.ToLower(dict.Decode(id).Value), kw) {
					candidates = append(candidates, id)
				}
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	return candidates
}

func (ft *fullText) size() int { return len(ft.postings) }
