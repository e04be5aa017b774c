package endpoint

// The reference SPARQL-JSON codec: the reflective encoding/json encoder
// and decoder that served the wire before the single-pass codec in
// json.go, kept verbatim (only the two function names changed) as the
// oracle of TestEncodeMatchesReference, TestDecodeMatchesReference and
// FuzzDecodeResults.

import (
	"encoding/json"
	"fmt"
	"io"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

type jsonResults struct {
	Head struct {
		Vars []string `json:"vars,omitempty"`
	} `json:"head"`
	Boolean *bool `json:"boolean,omitempty"`
	Results *struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results,omitempty"`
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// refEncodeResults writes res as application/sparql-results+json.
func refEncodeResults(w io.Writer, res *sparql.Results) error {
	var out jsonResults
	if res.IsAsk {
		b := res.Boolean
		out.Boolean = &b
		return json.NewEncoder(w).Encode(&out)
	}
	out.Head.Vars = res.Vars
	out.Results = &struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	}{Bindings: make([]map[string]jsonTerm, 0, len(res.Rows))}
	for _, row := range res.Rows {
		b := make(map[string]jsonTerm, len(row))
		for i, t := range row {
			if !sparql.Bound(t) {
				continue
			}
			b[res.Vars[i]] = termToJSON(t)
		}
		out.Results.Bindings = append(out.Results.Bindings, b)
	}
	return json.NewEncoder(w).Encode(&out)
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.TermIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.TermBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

// refDecodeResults parses application/sparql-results+json.
func refDecodeResults(r io.Reader) (*sparql.Results, error) {
	var in jsonResults
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("endpoint: decode results: %w", err)
	}
	if in.Boolean != nil {
		return &sparql.Results{IsAsk: true, Boolean: *in.Boolean}, nil
	}
	res := &sparql.Results{Vars: in.Head.Vars}
	if in.Results == nil {
		return res, nil
	}
	for _, b := range in.Results.Bindings {
		row := make([]rdf.Term, len(res.Vars))
		for i, v := range res.Vars {
			jt, ok := b[v]
			if !ok {
				continue
			}
			switch jt.Type {
			case "uri":
				row[i] = rdf.NewIRI(jt.Value)
			case "bnode":
				row[i] = rdf.NewBlank(jt.Value)
			case "literal", "typed-literal":
				switch {
				case jt.Lang != "":
					row[i] = rdf.NewLangString(jt.Value, jt.Lang)
				case jt.Datatype != "":
					row[i] = rdf.NewTyped(jt.Value, jt.Datatype)
				default:
					row[i] = rdf.NewString(jt.Value)
				}
			default:
				return nil, fmt.Errorf("endpoint: unknown term type %q", jt.Type)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
