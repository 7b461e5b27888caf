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
	// A placeholder under And or Or substitutes in place; a term list that
	// holds none comes back unchanged.
	small, err := ColConst{Col: "k", Op: LT, Val: relation.Int(5)}.Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		pred      Predicate
		hit, miss relation.Tuple
	}{
		{"And", And{Terms: []Predicate{small, bound}},
			relation.Tuple{relation.Int(1), relation.Str("hit")}, relation.Tuple{relation.Int(1), relation.Str("miss")}},
		{"Or", Or{Terms: []Predicate{small, bound}},
			relation.Tuple{relation.Int(9), relation.Str("hit")}, relation.Tuple{relation.Int(9), relation.Str("miss")}},
	} {
		sub, changed, err := substituteParams(c.pred, []relation.Value{relation.Str("hit")})
		if err != nil || !changed {
			t.Fatalf("%s: substitute: changed=%v err=%v", c.name, changed, err)
		}
		if !sub.Eval(c.hit) || sub.Eval(c.miss) {
			t.Errorf("%s: substituted %s disagrees with its placeholder's binding", c.name, sub)
		}
		if _, changed, err := substituteParams(c.pred, nil); err == nil || changed {
			t.Errorf("%s: substitute without its argument: changed=%v err=%v", c.name, changed, err)
		}
	}
	if _, changed, err := substituteParams(And{Terms: []Predicate{small}}, nil); err != nil || changed {
		t.Errorf("placeholder-free And: changed=%v err=%v", changed, err)
	}
	// Substituting an unbound placeholder is refused, not mis-evaluated.
	if _, _, err := substituteParams(ColParam{Col: "s", Op: EQ}, []relation.Value{relation.Str("x")}); err == nil {
		t.Error("substitute accepted an unbound placeholder")
	}
}
