package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lang"
	"repro/internal/maintain"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/value"
)

// Deployment sizes. They are part of the benchmark's definition (recorded
// in README.md): changing one makes old and new numbers incomparable.
const (
	// marketUsers sizes the marketplace (≈40 k orders, ≈88 k visits,
	// ≈1.3 s set-up, ≈107 MB live heap). It is 2.4× core.Prepared's
	// 4 096-entry bound-plan cache, so point_wide outgrows that cache.
	marketUsers = 10000
	// socialMembers sizes the social graph.
	socialMembers = 5000
)

// deployment is one scenario deployed in-process with the write path
// attached and a service in front, as estocada-serve builds it.
type deployment struct {
	sys    *core.System
	svc    *service.Service
	mt     *maintain.Maintainer
	schema lang.Schema
	// base is the generated source data per logical relation; the oracle
	// reads it, never the stores.
	base map[string][]value.Tuple
	// keys are the user (or member) ids, in generation order.
	keys []string
	// light lists relations stored only in identity key-value fragments
	// (cheap writes); heavy is the relation whose writes cost most here;
	// scanFrag is the largest scannable fragment.
	light    []string
	heavy    string
	scanFrag string
	// stmts are the server-side prepared statements of the workload,
	// indexed like its shapes (nil for ad-hoc shapes).
	stmts []*preparedShape
}

// preparedShape is a shape prepared on the service, with the position each
// shape parameter takes in the statement's argument list.
type preparedShape struct {
	stmt   *service.Stmt
	argPos []int
}

func deployMarket(variant scenario.Variant) (*deployment, error) {
	cfg := datagen.DefaultMarketplace()
	cfg.Users = marketUsers
	m, err := scenario.New(cfg, variant)
	if err != nil {
		return nil, err
	}
	mt, err := m.Maintained()
	if err != nil {
		return nil, err
	}
	d := &deployment{
		sys: m.Sys, mt: mt, schema: scenario.LogicalSchema,
		base: map[string][]value.Tuple{
			"Users": m.Data.Users, "Prefs": m.Data.Prefs, "Products": m.Data.Products,
			"Orders": m.Data.Orders, "Carts": m.Data.Carts, "Visits": m.Data.Visits,
		},
		light: []string{"Carts", "Prefs"}, heavy: "Orders", scanFrag: "FVisits",
	}
	for _, u := range m.Data.Users {
		d.keys = append(d.keys, string(u[0].(value.Str)))
	}
	return d, nil
}

func deploySocial() (*deployment, error) {
	cfg := datagen.DefaultSocial()
	cfg.Members = socialMembers
	s, err := scenario.NewSocial(cfg, false)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		sys: s.Sys, schema: scenario.SocialSchema,
		base: map[string][]value.Tuple{
			"Members": s.Data.Members, "Follows": s.Data.Follows,
			"Posts": s.Data.Posts, "Likes": s.Data.Likes,
		},
		light: []string{"Follows", "Likes"}, heavy: "Posts", scanFrag: "FPosts",
	}
	// The social scenario ships no Maintained(); attach the write path the
	// way the marketplace's does.
	mt := maintain.NewDetached(s.Sys)
	for pred, rows := range d.base {
		if err := mt.SeedBase(pred, rows); err != nil {
			return nil, fmt.Errorf("seed %s: %w", pred, err)
		}
	}
	if err := mt.TrackAll(); err != nil {
		return nil, err
	}
	mt.Attach()
	d.mt = mt
	for _, u := range s.Data.Members {
		d.keys = append(d.keys, string(u[0].(value.Str)))
	}
	return d, nil
}

// setUp deploys a workload's scenario, puts a service in front and
// prepares the workload's statements: everything a mediator does before it
// takes traffic, and what setup_s times.
func setUp(ctx context.Context, w *workloadDef) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := w.deploy()
	if err != nil {
		return nil, 0, err
	}
	d.svc = service.New(d.sys, service.Options{Schema: d.schema})
	d.stmts = make([]*preparedShape, len(w.shapes))
	for i, sh := range w.shapes {
		if !sh.prepared {
			continue
		}
		if d.stmts[i], err = prepareShape(ctx, d.svc, sh); err != nil {
			return nil, 0, fmt.Errorf("prepare %s: %w", sh.name, err)
		}
	}
	return d, time.Since(start), nil
}

// prepareShape prepares sh with one marker constant per parameter and
// reads the statement's argument order back from its default arguments.
func prepareShape(ctx context.Context, svc *service.Service, sh shape) (*preparedShape, error) {
	markers := make([]string, len(sh.params))
	for i := range markers {
		markers[i] = fmt.Sprintf("\x01param%d", i)
	}
	st, err := svc.PrepareCQ(ctx, sh.bind(markers...))
	if err != nil {
		return nil, err
	}
	ps := &preparedShape{stmt: st, argPos: make([]int, len(sh.params))}
	for pos, a := range st.DefaultArgs() {
		for i, m := range markers {
			if s, ok := a.(value.Str); ok && string(s) == m {
				ps.argPos[i] = pos
			}
		}
	}
	if st.NumParams() != len(sh.params) {
		return nil, fmt.Errorf("statement takes %d parameters, shape has %d", st.NumParams(), len(sh.params))
	}
	return ps, nil
}

// args orders the shape's parameter values as the statement expects them.
func (ps *preparedShape) args(vals ...string) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[ps.argPos[i]] = value.Str(v)
	}
	return out
}

// bumpEpoch moves the catalog epoch through the public catalog API, the way
// a storage tuner would: it registers, materializes and drops an empty
// fragment over a relation no query mentions. Every rewriting cached before
// the call is stale after it. tag keeps concurrent callers' fragment names
// apart.
func (d *deployment) bumpEpoch(tag int) error {
	name := fmt.Sprintf("FBenchIdle%d", tag)
	x := pivot.Var("x")
	f := &catalog.Fragment{
		Name: name, Dataset: "bench", Store: "pg",
		View: rewrite.NewView(name, pivot.NewCQ(
			pivot.NewAtom(name, x), pivot.NewAtom(fmt.Sprintf("BenchIdle%d", tag), x))),
		Layout: catalog.Layout{Kind: catalog.LayoutRel, Collection: fmt.Sprintf("bench_idle%d", tag),
			Columns: []string{"x"}},
	}
	if err := d.sys.RegisterFragment(f); err != nil {
		return err
	}
	if err := d.sys.Materialize(name, nil); err != nil {
		return err
	}
	return d.sys.DropFragment(name)
}

// freshRow builds the n-th row a writer inserts into rel: distinct from
// every generated row and from every other n. Visits and Orders rows take
// the (user, product) of an existing order or visit, so they join and the
// purchase-history fragment really changes.
func (d *deployment) freshRow(rel string, n int, rng *rand.Rand) value.Tuple {
	key := d.keys[rng.Intn(len(d.keys))]
	pick := func(pred string) value.Tuple { return d.base[pred][rng.Intn(len(d.base[pred]))] }
	switch rel {
	case "Carts":
		return value.TupleOf(key, pick("Products")[0], int64(1000+n))
	case "Prefs":
		return value.TupleOf(key, "bench", fmt.Sprintf("v%d", n))
	case "Visits":
		o := pick("Orders")
		return value.TupleOf(o[1], o[2], int64(1_000_000+n))
	case "Orders":
		vi := pick("Visits")
		return value.TupleOf(fmt.Sprintf("b%07d", n), vi[0], vi[1], 1.5)
	case "Follows", "Likes":
		return value.TupleOf(key, fmt.Sprintf("bench%d", n))
	case "Posts":
		return value.TupleOf(fmt.Sprintf("b%06d", n), key, "bench")
	}
	panic("bench: no row generator for relation " + rel)
}
