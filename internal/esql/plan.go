package esql

import (
	"fmt"
	"slices"
	"strings"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// OutputName is the relation name every compiled query stores its result as.
const OutputName = "result"

// StageName is the intermediate relation a Materialize plan stores between
// its two chains (see Compiler.Materialize).
const StageName = "__stage"

// Compiler turns parsed queries into bound Lera-par plans, using catalog
// metadata to pick the parallel join shape: co-located operands become a
// triggered join (IdealJoin); otherwise the non-co-located operand is
// redistributed into a pipelined join (AssocJoin), exactly the two execution
// plans of §5.3.
type Compiler struct {
	// Resolver supplies relation schemas and partitioning.
	Resolver lera.Resolver
	// JoinAlgo selects the join implementation (default HashJoin).
	JoinAlgo lera.JoinAlgo
	// Materialize inserts an explicit materialization point before the
	// aggregation/projection stage: the scan/join/filter part of the query
	// stores its stream as an intermediate relation (StageName) and a
	// second pipeline chain scans it into the rest of the plan. The split
	// costs a materialization but gives the executor a §3 chain boundary —
	// the site where a QueryManager renegotiates the query's thread
	// reservation mid-flight (Manager.Readmit).
	Materialize bool
}

// Compile parses and plans one statement, returning the bound plan and the
// plan graph (for EXPLAIN/DOT rendering).
func (c *Compiler) Compile(sql string) (*lera.Plan, *lera.Graph, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	g, err := c.planGraph(q)
	if err != nil {
		return nil, nil, err
	}
	plan, err := lera.Bind(g, c.Resolver)
	if err != nil {
		return nil, nil, err
	}
	return plan, g, nil
}

// planGraph builds the Lera-par graph for a query.
func (c *Compiler) planGraph(q *Query) (*lera.Graph, error) {
	if len(q.Joins) == 0 {
		return c.planSingle(q)
	}
	return c.planJoin(q)
}

// planSingle: filter -> [aggregate | map] -> store.
func (c *Compiler) planSingle(q *Query) (*lera.Graph, error) {
	ri, err := c.Resolver.RelInfo(q.From)
	if err != nil {
		return nil, err
	}
	resolve := schemaResolver(ri.Schema, map[string]string{q.From: ""})
	g := lera.NewGraph()
	pred, err := rewritePredicate(orTrue(q.Where), resolve)
	if err != nil {
		return nil, err
	}
	head := g.Filter("filter", q.From, pred)
	return c.finish(g, head, ri.Schema, resolve, q)
}

// planJoin: choose the co-located side of the first join as build; stream
// the other when necessary; chain every further join as a pipelined join
// against its bound (co-partitioned) table; then filter/project/aggregate/
// store.
func (c *Compiler) planJoin(q *Query) (*lera.Graph, error) {
	j := q.Joins[0]
	// Map the join columns to their relations.
	cols := map[string]string{j.LeftCol.Table: j.LeftCol.Col, j.RightCol.Table: j.RightCol.Col}
	if _, ok := cols[q.From]; !ok {
		return nil, fmt.Errorf("esql: join condition does not reference %q", q.From)
	}
	if _, ok := cols[j.Table]; !ok {
		return nil, fmt.Errorf("esql: join condition does not reference %q", j.Table)
	}
	left, err := c.Resolver.RelInfo(q.From)
	if err != nil {
		return nil, err
	}
	right, err := c.Resolver.RelInfo(j.Table)
	if err != nil {
		return nil, err
	}
	lCol, rCol := cols[q.From], cols[j.Table]
	coPart := func(ri lera.RelInfo, col string) bool {
		return ri.Part != nil && len(ri.Part.Key()) == 1 && ri.Part.Key()[0] == col
	}
	g := lera.NewGraph()
	var head *lera.Node
	var outSchema *relation.Schema
	alias := map[string]string{}
	joined := map[string]bool{q.From: true, j.Table: true}
	switch {
	case coPart(left, lCol) && coPart(right, rCol) &&
		left.Part.Signature() == right.Part.Signature() && left.Degree == right.Degree:
		// IdealJoin: both operands co-located; triggered join.
		head = g.JoinBound("join", q.From, j.Table, []string{lCol}, []string{rCol}, c.JoinAlgo)
		outSchema = left.Schema.Concat(right.Schema, q.From+".", j.Table+".")
		alias[q.From], alias[j.Table] = q.From, j.Table
	case coPart(left, lCol):
		// AssocJoin: stream the right relation into a pipelined join.
		tr := g.Transmit("transmit", j.Table)
		head = g.JoinPipelined("join", q.From, []string{lCol}, []string{rCol}, c.JoinAlgo)
		g.ConnectHash(tr, head, []string{rCol})
		outSchema = left.Schema.Concat(right.Schema, q.From+".", "probe.")
		alias[q.From], alias[j.Table] = q.From, "probe"
	case coPart(right, rCol):
		tr := g.Transmit("transmit", q.From)
		head = g.JoinPipelined("join", j.Table, []string{rCol}, []string{lCol}, c.JoinAlgo)
		g.ConnectHash(tr, head, []string{lCol})
		outSchema = right.Schema.Concat(left.Schema, j.Table+".", "probe.")
		alias[j.Table], alias[q.From] = j.Table, "probe"
	default:
		return nil, fmt.Errorf("esql: neither %q nor %q is partitioned on its join attribute", q.From, j.Table)
	}

	// Subsequent joins: the new table is the bound build side and must be
	// partitioned on its join column; the accumulated stream redistributes
	// into the pipelined join.
	for k := 1; k < len(q.Joins); k++ {
		jc := q.Joins[k]
		var newCol string
		var streamRef qualified
		switch {
		case jc.LeftCol.Table == jc.Table && joined[jc.RightCol.Table]:
			newCol, streamRef = jc.LeftCol.Col, jc.RightCol
		case jc.RightCol.Table == jc.Table && joined[jc.LeftCol.Table]:
			newCol, streamRef = jc.RightCol.Col, jc.LeftCol
		default:
			return nil, fmt.Errorf("esql: join %d must connect new table %q to an already-joined table", k+1, jc.Table)
		}
		if joined[jc.Table] {
			return nil, fmt.Errorf("esql: table %q joined twice", jc.Table)
		}
		build, err := c.Resolver.RelInfo(jc.Table)
		if err != nil {
			return nil, err
		}
		if !coPart(build, newCol) {
			return nil, fmt.Errorf("esql: %q must be partitioned on %q to join a stream in this subset", jc.Table, newCol)
		}
		streamCol, err := schemaResolver(outSchema, alias)(streamRef.String())
		if err != nil {
			return nil, err
		}
		join := g.JoinPipelined(fmt.Sprintf("join%d", k+1), jc.Table, []string{newCol}, []string{streamCol}, c.JoinAlgo)
		g.ConnectHash(head, join, []string{streamCol})
		head = join
		outSchema = build.Schema.Concat(outSchema, jc.Table+".", "probe.")
		alias[jc.Table] = jc.Table
		joined[jc.Table] = true
	}

	resolve := schemaResolver(outSchema, alias)
	if q.Where != nil {
		pred, err := rewritePredicate(q.Where, resolve)
		if err != nil {
			return nil, err
		}
		// Residual predicate as a pipelined filter after the join.
		flt := g.FilterPipelined("where", pred)
		g.ConnectSame(head, flt)
		head = flt
	}
	return c.finish(g, head, outSchema, resolve, q)
}

// finish appends the optional aggregate or projection and the store node.
// With Materialize set, the stream produced so far is first stored as the
// stage relation and scanned back by a second chain, turning the plan into
// two chains with a materialization point between them.
func (c *Compiler) finish(g *lera.Graph, head *lera.Node, schema *relation.Schema, resolve func(string) (string, error), q *Query) (*lera.Graph, error) {
	if c.Materialize {
		st := g.Store("stage", StageName)
		g.ConnectSame(head, st)
		head = g.Transmit("scan", StageName)
	}
	if q.Agg != nil {
		groupBy := make([]string, len(q.GroupBy))
		for i, col := range q.GroupBy {
			r, err := resolve(col)
			if err != nil {
				return nil, err
			}
			groupBy[i] = r
		}
		// The output is the group key followed by the aggregate, so a plain
		// select-list column must name a grouping column: resolved, or by the
		// bare name of a qualified one (SELECT k ... GROUP BY A.k).
		for _, col := range q.Cols {
			if !slices.ContainsFunc(q.GroupBy, func(g string) bool { return g[strings.LastIndexByte(g, '.')+1:] == col }) {
				if r, err := resolve(col); err != nil || !slices.Contains(groupBy, r) {
					return nil, fmt.Errorf("esql: column %q is not a GROUP BY column", col)
				}
			}
		}
		aggCol := ""
		if q.Agg.Col != "" {
			r, err := resolve(q.Agg.Col)
			if err != nil {
				return nil, err
			}
			aggCol = r
		}
		agg := g.Aggregate("aggregate", groupBy, q.Agg.Kind, aggCol)
		g.ConnectHash(head, agg, groupBy)
		st := g.Store("store", OutputName)
		g.ConnectSame(agg, st)
		return g, nil
	}
	if !q.Star && len(q.Cols) > 0 {
		cols := make([]string, len(q.Cols))
		for i, col := range q.Cols {
			r, err := resolve(col)
			if err != nil {
				return nil, err
			}
			cols[i] = r
		}
		m := g.Map("project", cols)
		g.ConnectSame(head, m)
		head = m
	}
	st := g.Store("store", OutputName)
	g.ConnectSame(head, st)
	return g, nil
}

// schemaResolver resolves (possibly qualified) ESQL column references
// against a schema. alias maps the user-visible table name to the prefix
// used in the schema ("" for unprefixed single-table schemas, "probe" for
// the streamed side of a pipelined join).
func schemaResolver(s *relation.Schema, alias map[string]string) func(string) (string, error) {
	return func(name string) (string, error) {
		// Exact hit first.
		if _, ok := s.Index(name); ok {
			return name, nil
		}
		if table, col, isQualified := strings.Cut(name, "."); isQualified {
			prefix, known := alias[table]
			if !known {
				return "", fmt.Errorf("esql: unknown table %q in %q", table, name)
			}
			// Collision-prefixed name.
			if prefix != "" {
				if cand := prefix + "." + col; candIn(s, cand) {
					return cand, nil
				}
			}
			// Non-colliding column keeps its bare name.
			if candIn(s, col) {
				return col, nil
			}
			return "", fmt.Errorf("esql: no column %q in %s", name, s)
		}
		// Unqualified name: accept when exactly one prefixed variant exists.
		var match string
		for i := 0; i < s.Len(); i++ {
			cn := s.Column(i).Name
			if _, col, ok := strings.Cut(cn, "."); ok && col == name {
				if match != "" {
					return "", fmt.Errorf("esql: ambiguous column %q in %s", name, s)
				}
				match = cn
			}
		}
		if match != "" {
			return match, nil
		}
		return "", fmt.Errorf("esql: no column %q in %s", name, s)
	}
}

func candIn(s *relation.Schema, name string) bool {
	_, ok := s.Index(name)
	return ok
}

// rewritePredicate rebuilds a predicate with resolved column names.
func rewritePredicate(p lera.Predicate, resolve func(string) (string, error)) (lera.Predicate, error) {
	switch t := p.(type) {
	case lera.True:
		return t, nil
	case lera.ColConst:
		col, err := resolve(t.Col)
		if err != nil {
			return nil, err
		}
		t.Col = col
		return t, nil
	case lera.ColParam:
		col, err := resolve(t.Col)
		if err != nil {
			return nil, err
		}
		t.Col = col
		return t, nil
	case lera.ColCol:
		l, err := resolve(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := resolve(t.Right)
		if err != nil {
			return nil, err
		}
		t.Left, t.Right = l, r
		return t, nil
	case lera.And:
		out := lera.And{Terms: make([]lera.Predicate, len(t.Terms))}
		for i, term := range t.Terms {
			rw, err := rewritePredicate(term, resolve)
			if err != nil {
				return nil, err
			}
			out.Terms[i] = rw
		}
		return out, nil
	case lera.Or:
		out := lera.Or{Terms: make([]lera.Predicate, len(t.Terms))}
		for i, term := range t.Terms {
			rw, err := rewritePredicate(term, resolve)
			if err != nil {
				return nil, err
			}
			out.Terms[i] = rw
		}
		return out, nil
	case lera.Not:
		rw, err := rewritePredicate(t.Term, resolve)
		if err != nil {
			return nil, err
		}
		return lera.Not{Term: rw}, nil
	default:
		return nil, fmt.Errorf("esql: unsupported predicate %T", p)
	}
}

// orTrue substitutes TRUE for a missing predicate.
func orTrue(p lera.Predicate) lera.Predicate {
	if p == nil {
		return lera.True{}
	}
	return p
}
