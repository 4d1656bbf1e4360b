// Package stats holds per-fragment statistics and the textbook cardinality
// and cost estimation ESTOCADA uses to pick among rewritings ("ESTOCADA
// estimates the cardinality of its result, based on statistics it gathers
// and stores on the data of each fragment and using database textbook
// formulas", paper §III).
package stats

import (
	"fmt"
	"sort"

	"repro/internal/pivot"
	"repro/internal/value"
)

// FragmentStats summarizes one stored fragment.
type FragmentStats struct {
	// Rows is the fragment cardinality.
	Rows int64
	// Distinct[i] is the number of distinct values in column i.
	Distinct []int64
}

// Collect computes statistics from a sample of the fragment's tuples.
func Collect(rows []value.Tuple) FragmentStats {
	st := FragmentStats{Rows: int64(len(rows))}
	if len(rows) == 0 {
		return st
	}
	width := len(rows[0])
	sets := make([]map[string]struct{}, width)
	for i := range sets {
		sets[i] = map[string]struct{}{}
	}
	for _, r := range rows {
		for i := 0; i < width && i < len(r); i++ {
			sets[i][r[i].Key()] = struct{}{}
		}
	}
	st.Distinct = make([]int64, width)
	for i, s := range sets {
		st.Distinct[i] = int64(len(s))
	}
	return st
}

// DistinctAt returns the distinct count of a column, defaulting to Rows
// (every value distinct) when unknown.
func (s FragmentStats) DistinctAt(col int) int64 {
	if col >= 0 && col < len(s.Distinct) && s.Distinct[col] > 0 {
		return s.Distinct[col]
	}
	if s.Rows > 0 {
		return s.Rows
	}
	return 1
}

// Selectivity returns the estimated fraction of the fragment's rows that
// survive an equality restriction on col (the textbook 1/V(F,c)).
func (s FragmentStats) Selectivity(col int) float64 {
	return 1 / float64(s.DistinctAt(col))
}

// Provider resolves statistics for a view/fragment predicate.
type Provider interface {
	StatsFor(pred string) (FragmentStats, bool)
}

// MapProvider is a Provider backed by a map.
type MapProvider map[string]FragmentStats

// StatsFor implements Provider.
func (m MapProvider) StatsFor(pred string) (FragmentStats, bool) {
	s, ok := m[pred]
	return s, ok
}

// EstimateCQ estimates the result cardinality of a conjunctive query over
// fragment predicates using the classical System-R style formulas:
//
//   - the starting cardinality of each atom is the fragment's row count;
//   - each constant selection on column c divides by V(F,c);
//   - each join variable shared between two atoms divides the product by
//     max(V(L,c), V(R,c));
//   - repeated variables within one atom divide by the column's V.
//
// Unknown fragments default to defaultRows.
func EstimateCQ(q pivot.CQ, p Provider, defaultRows int64) float64 {
	if defaultRows <= 0 {
		defaultRows = 1000
	}
	card := 1.0
	// Track, per variable, the distinct counts of the columns it appears in.
	varDistinct := map[pivot.Var][]int64{}
	for _, a := range q.Body {
		st, ok := p.StatsFor(a.Pred)
		if !ok {
			st = FragmentStats{Rows: defaultRows}
		}
		rows := float64(st.Rows)
		if rows < 1 {
			rows = 1
		}
		seenInAtom := map[pivot.Var]bool{}
		for col, t := range a.Args {
			switch tt := t.(type) {
			case pivot.Const:
				rows /= float64(st.DistinctAt(col))
			case pivot.Var:
				if seenInAtom[tt] {
					rows /= float64(st.DistinctAt(col))
				} else {
					seenInAtom[tt] = true
					varDistinct[tt] = append(varDistinct[tt], st.DistinctAt(col))
				}
			}
		}
		if rows < 1e-9 {
			rows = 1e-9
		}
		card *= rows
	}
	// Join selectivity: for each variable occurring in k atoms, divide by
	// the (k-1) largest distinct counts.
	for _, ds := range varDistinct {
		if len(ds) < 2 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] > ds[j] })
		for _, d := range ds[:len(ds)-1] {
			card /= float64(d)
		}
	}
	if card < 0 {
		card = 0
	}
	return card
}

// CostFactors models the relative expense of talking to each store kind.
// The values are unitless work units roughly proportional to the real-world
// costs the paper's scenario exploits: a KV get is far cheaper than a
// document-path query, which is cheaper than a relational scan; parallel
// stores amortize scans over partitions.
type CostFactors struct {
	// RequestOverhead is charged once per delegated request.
	RequestOverhead float64
	// TupleCost is charged per tuple produced by the store.
	TupleCost float64
	// ScanPenalty multiplies the scanned cardinality for full scans.
	ScanPenalty float64
	// Parallelism divides scan costs (≥1).
	Parallelism float64
}

// DefaultCostFactors returns per-store-kind factors.
func DefaultCostFactors(kind string) CostFactors {
	switch kind {
	case "keyvalue":
		return CostFactors{RequestOverhead: 1, TupleCost: 0.2, ScanPenalty: 1000, Parallelism: 1}
	case "document":
		return CostFactors{RequestOverhead: 4, TupleCost: 2.0, ScanPenalty: 1.2, Parallelism: 1}
	case "fulltext":
		return CostFactors{RequestOverhead: 4, TupleCost: 1.0, ScanPenalty: 1.5, Parallelism: 1}
	case "parallel":
		return CostFactors{RequestOverhead: 12, TupleCost: 0.6, ScanPenalty: 1, Parallelism: 8}
	default: // relational
		return CostFactors{RequestOverhead: 3, TupleCost: 0.5, ScanPenalty: 1, Parallelism: 1}
	}
}

// AccessKind classifies one fragment access in a plan.
type AccessKind int

const (
	// AccessScan reads the whole fragment.
	AccessScan AccessKind = iota
	// AccessIndex reads matching tuples through an index.
	AccessIndex
	// AccessKey is an exact-key get.
	AccessKey
)

func (k AccessKind) String() string {
	switch k {
	case AccessScan:
		return "scan"
	case AccessIndex:
		return "index"
	case AccessKey:
		return "key"
	default:
		return fmt.Sprintf("access(%d)", int(k))
	}
}

// AccessCost estimates one access returning outRows tuples out of a
// fragment with totalRows, under the store's cost factors.
func AccessCost(k AccessKind, f CostFactors, totalRows, outRows float64) float64 {
	if totalRows < 1 {
		totalRows = 1
	}
	if outRows < 0 {
		outRows = 0
	}
	switch k {
	case AccessKey:
		return f.RequestOverhead + f.TupleCost*outRows
	case AccessIndex:
		return f.RequestOverhead + f.TupleCost*outRows + 0.1
	default:
		par := f.Parallelism
		if par < 1 {
			par = 1
		}
		return f.RequestOverhead + f.ScanPenalty*totalRows/par*0.1 + f.TupleCost*outRows
	}
}
