package lera

import (
	"strings"
	"testing"

	"dbs3/internal/relation"
)

// TestColParamContracts: the display form is 1-based, Eval before
// substitution is a hard bug (panic, not a wrong answer), and Bind resolves
// and type-records the column.
func TestColParamContracts(t *testing.T) {
	p := ColParam{Col: "k", Op: GE, Index: 2}
	if got := p.String(); got != "k >= ?3" {
		t.Errorf("String = %q", got)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "BindParams") {
				t.Errorf("Eval on unsubstituted placeholder: recover = %v", r)
			}
		}()
		p.Eval(relation.Tuple{relation.Int(1)})
	}()

	schema, err := relation.NewSchema(
		relation.Column{Name: "k", Type: relation.TInt},
		relation.Column{Name: "s", Type: relation.TString},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (ColParam{Col: "missing", Op: EQ}).Bind(schema); err == nil {
		t.Error("Bind resolved a missing column")
	}
	bound, err := ColParam{Col: "s", Op: EQ, Index: 0}.Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	// The bound placeholder substitutes into a working constant predicate.
	sub, changed, err := substituteParams(bound, []relation.Value{relation.Str("hit")})
	if err != nil || !changed {
		t.Fatalf("substitute: changed=%v err=%v", changed, err)
	}
	tup := relation.Tuple{relation.Int(1), relation.Str("hit")}
	if !sub.Eval(tup) {
		t.Error("substituted predicate rejected its matching tuple")
	}
	if sub.Eval(relation.Tuple{relation.Int(1), relation.Str("miss")}) {
		t.Error("substituted predicate accepted a non-matching tuple")
	}
	// Substituting an unbound placeholder is refused, not mis-evaluated.
	if _, _, err := substituteParams(ColParam{Col: "s", Op: EQ}, []relation.Value{relation.Str("x")}); err == nil {
		t.Error("substitute accepted an unbound placeholder")
	}
}
