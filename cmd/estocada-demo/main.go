// estocada-demo walks the four steps of the paper's demonstration outline
// (§IV):
//
//  1. show the registered fragments' storage descriptors and their pivot-
//     model view definitions;
//  2. pick workload queries and trigger their rewriting — showing the pivot
//     translation, the PACB output, and the executable plan;
//  3. execute the rewriting and print performance statistics split across
//     the underlying DMSs and the ESTOCADA runtime;
//  4. request fragment recommendations from the Storage Advisor,
//     materialize them, and observe the impact on plan selection.
//
// Usage: estocada-demo [-variant baseline|kv|materialized] [-users N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/advisor"
	"repro/internal/datagen"
	"repro/internal/lang"
	"repro/internal/scenario"
	"repro/internal/value"
)

func main() {
	variantFlag := flag.String("variant", "kv", "storage variant: baseline, kv, materialized")
	users := flag.Int("users", 1000, "number of users in the generated dataset")
	flag.Parse()

	var variant scenario.Variant
	switch *variantFlag {
	case "baseline":
		variant = scenario.Baseline
	case "kv":
		variant = scenario.KV
	case "materialized":
		variant = scenario.Materialized
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variantFlag)
		os.Exit(2)
	}

	cfg := datagen.DefaultMarketplace()
	cfg.Users = *users
	m, err := scenario.New(cfg, variant)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("═══ ESTOCADA demo — variant %s, %d users ═══\n\n", variant, cfg.Users)

	// Step 1: storage descriptors.
	fmt.Println("── step 1: fragments and their storage descriptors ──")
	for _, f := range m.Sys.Catalog.All() {
		fmt.Println(f.Describe())
		fmt.Println()
	}

	// Step 2: pick a query, show its pivot translation and rewriting.
	fmt.Println("── step 2: query rewriting ──")
	sqlText := `SELECT u.name, o.pid FROM Users u, Orders o WHERE u.uid = o.uid AND u.city = 'paris'`
	fmt.Println("native (SQL):", sqlText)
	q, err := lang.ParseSQL(sqlText, scenario.LogicalSchema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pivot model: ", q)
	res, err := m.Sys.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PACB output (%d alternative(s), %d verification chase(s), %s):\n",
		res.Report.Alternatives, res.Report.RewriteStats.VerificationChases,
		res.Report.RewriteStats.Duration.Round(time.Microsecond))
	fmt.Println("  ", res.Report.Rewriting)
	fmt.Println("executable plan:")
	fmt.Println(indent(res.Report.PlanExplain, "  "))

	// Step 3: execution statistics split per DMS.
	fmt.Println("── step 3: execution ──")
	fmt.Printf("%d rows in %s (planning %s)\n", len(res.Rows),
		res.Report.ExecTime.Round(time.Microsecond),
		res.Report.PlanningTime.Round(time.Microsecond))
	fmt.Println("per-store work split:")
	for store, c := range res.Report.PerStore {
		if c.Requests > 0 {
			fmt.Printf("  %-6s %s\n", store, c)
		}
	}
	// Cross-model query: preferences from the key-value store (if present).
	prefs, err := m.Sys.Prepare(scenario.PrefsLookupQuery(), "uid")
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	rows, err := prefs.Exec(value.Str(datagen.UID(3)))
	d := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkey lookup Prefs(%s) via %s: %d rows in %s\n",
		datagen.UID(3), prefs.Rewriting().Body[0].Pred, len(rows), d.Round(time.Microsecond))

	// Step 4: storage advisor.
	fmt.Println("\n── step 4: storage advisor ──")
	search := scenario.PersonalizedSearchQuery()
	adv := &advisor.Advisor{Sys: m.Sys, KVStore: "redis", ParStore: "spark"}
	recs, err := adv.Recommend([]advisor.QueryFreq{
		{Q: search, BoundHeadPositions: []int{0, 1}, Freq: 5000},
		{Q: scenario.PrefsLookupQuery(), BoundHeadPositions: []int{0}, Freq: 20000},
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(recs) == 0 {
		fmt.Println("no recommendations — the current layout already fits the workload")
		return
	}
	for _, r := range recs {
		fmt.Println("  -", r)
	}
	for _, r := range recs {
		if r.Action != advisor.ActionAdd {
			continue
		}
		if err := adv.Apply(r); err != nil {
			fmt.Printf("  (could not materialize %s: %v)\n", r.Fragment.Name, err)
			continue
		}
		fmt.Printf("\nmaterialized %s; personalized search now plans as:\n", r.Fragment.Name)
		p, err := m.Sys.Prepare(search, "uid", "category")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  ", p.Rewriting())
		break
	}
}

func indent(s, prefix string) string {
	out := prefix
	for _, c := range s {
		out += string(c)
		if c == '\n' {
			out += prefix
		}
	}
	return out
}
