package main

import (
	"fmt"

	nalquery "nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/core"
	"nalquery/internal/cost"
	"nalquery/internal/dom"
	"nalquery/internal/index"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/stats"
	"nalquery/internal/translate"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

// stagedCompiler calls the compile layers one by one, in the order the
// engine's compileState calls them, so the traced run can time each stage
// on its own. It is the benchmark's replica of compileState: after each
// staged compile the traced run checks that it lists the same plans at the
// same costs as Engine.Compile of the same text (samePlans). It keeps its
// own snapshot: the parsed documents and, standing in for the engine's
// index catalog, one index.BuildWith result per document (built when the
// document is loaded, timed as index.build).
type stagedCompiler struct {
	cat  *schema.Catalog
	docs map[string]*dom.Document
	aux  map[string]*index.DocIndexes
}

func newStagedCompiler(cat *schema.Catalog) *stagedCompiler {
	return &stagedCompiler{cat: cat, docs: map[string]*dom.Document{},
		aux: map[string]*index.DocIndexes{}}
}

// load registers a parsed document and builds its indexes.
func (s *stagedCompiler) load(tr *tracer, d *dom.Document) {
	s.docs[d.URI] = d
	sp := tr.begin("index.build")
	s.aux[d.URI] = index.BuildWith(d, nil)
	tr.end(sp)
}

// stagedPlan is one plan alternative the staged compile produced, named
// and priced as compileState names and prices it.
type stagedPlan struct {
	Name string
	Cost float64
}

// compile runs parse, normalize, translate, rewrite, cost-model build,
// per-plan costing, the unordered family and index substitution, and
// returns the plan alternatives in the order compileState lists them.
func (s *stagedCompiler) compile(tr *tracer, text string) ([]stagedPlan, error) {
	sp := tr.begin("xquery.parse")
	mod, err := xquery.ParseModule(text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ast := mod.Body
	var params map[string]int
	if len(mod.Externals) > 0 {
		params = make(map[string]int, len(mod.Externals))
		for i, name := range mod.Externals {
			params[name] = i
		}
	}
	orderIrrelevant := false
	if c, ok := ast.(xquery.Call); ok && c.Fn == "unordered" && len(c.Args) == 1 {
		if f, isFLWR := c.Args[0].(xquery.FLWR); isFLWR {
			ast = f
			orderIrrelevant = true
		}
	}

	sp = tr.begin("normalize.normalize")
	norm := normalize.NormalizeWithCatalog(ast, s.cat)
	tr.end(sp)

	sp = tr.begin("translate.translate")
	res, err := translate.TranslateParams(norm, s.cat, params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("core.alternatives")
	alts := core.NewRewriter(res, s.cat).Alternatives(res.Plan)
	tr.end(sp)
	tr.count("core.alternatives", float64(len(alts)))

	sp = tr.begin("cost.model_build")
	st := make(map[string]*stats.DocStats, len(s.aux))
	for uri, x := range s.aux {
		st[uri] = x.Stats
	}
	model := cost.NewModelStats(s.docs, st)
	tr.end(sp)

	plans := make([]stagedPlan, 0, 2*len(alts))
	price := func(name string, op algebra.Op) {
		sp := tr.begin("cost.plan")
		est := model.Plan(op)
		tr.end(sp)
		plans = append(plans, stagedPlan{name, est.Cost})
	}
	for _, a := range alts {
		price(a.Name, a.Op)
	}
	if orderIrrelevant {
		for _, a := range alts {
			if a.Name == "nested" {
				continue
			}
			if u, changed := core.ToUnordered(a.Op); changed && core.Validate(u) {
				price("unordered "+a.Name, u)
			}
		}
	}
	icat := indexCat{aux: s.aux}
	for _, a := range alts {
		sp = tr.begin("core.substitute_indexes")
		sub, changed := core.SubstituteIndexes(a.Op, icat)
		ok := changed && core.Validate(sub)
		tr.end(sp)
		if ok {
			price("indexed "+a.Name, sub)
		}
	}
	return plans, nil
}

// samePlans reports how the engine's compiled plans differ from the staged
// compile's, or "" when both list the same names, in the same order, at
// the same estimated costs.
func samePlans(q *nalquery.Query, staged []stagedPlan) string {
	eng := q.Plans()
	for i := 0; i < max(len(eng), len(staged)); i++ {
		switch {
		case i >= len(eng):
			return fmt.Sprintf("staged compile has extra plan %q", staged[i].Name)
		case i >= len(staged):
			return fmt.Sprintf("engine has extra plan %q", eng[i].Name)
		case eng[i].Name != staged[i].Name || eng[i].EstimatedCost != staged[i].Cost:
			return fmt.Sprintf("plan %d: engine %q at cost %g, staged compile %q at cost %g",
				i, eng[i].Name, eng[i].EstimatedCost, staged[i].Name, staged[i].Cost)
		}
	}
	return ""
}

// indexCat adapts the staged snapshot's index.BuildWith results to the
// planner's core.IndexCatalog.
type indexCat struct {
	aux map[string]*index.DocIndexes
}

func (c indexCat) ScanIndex(uri string, p xpath.Path) (core.ScanInfo, bool) {
	x := c.aux[uri]
	if x == nil {
		return core.ScanInfo{}, false
	}
	si, ok := x.Scan(p)
	if !ok {
		return core.ScanInfo{}, false
	}
	return core.ScanInfo{Index: si.Index, Path: si.Path, Card: si.Card}, true
}

func (c indexCat) ValueIndex(uri string, base, rel xpath.Path) (core.ValueInfo, bool) {
	x := c.aux[uri]
	if x == nil {
		return core.ValueInfo{}, false
	}
	vi, ok := x.Value(base, rel)
	if !ok {
		return core.ValueInfo{}, false
	}
	return core.ValueInfo{Index: vi.Index, Path: vi.Path, Depth: vi.Depth,
		Card: vi.Card, ScanCard: vi.ScanCard}, true
}
