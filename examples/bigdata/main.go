// Bigdata: the Big Data Benchmark datasets of the demo (paper §IV) in
// vanilla (one relational store) and hybrid (relational + parallel +
// materialized join) deployments, comparing the same join workload, plus a
// parallel aggregation pushed to the Spark stand-in.
//
// Run with: go run ./examples/bigdata
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/datagen"
	"repro/internal/engines/engine"
	"repro/internal/scenario"
	"repro/internal/value"
)

var words = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}

func main() {
	cfg := datagen.DefaultBDB()
	fmt.Printf("Big Data Benchmark datasets: %d rankings, %d user visits\n\n",
		cfg.Rankings, cfg.UserVisits)

	for _, hybrid := range []bool{false, true} {
		d, err := scenario.NewBDB(cfg, hybrid)
		if err != nil {
			log.Fatal(err)
		}
		p, err := d.Sys.Prepare(scenario.JoinByWordQuery(), "word")
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		total := 0
		for round := 0; round < 5; round++ {
			for _, w := range words {
				rows, err := p.Exec(value.Str(w))
				if err != nil {
					log.Fatal(err)
				}
				total += len(rows)
			}
		}
		elapsed := time.Since(start)
		name := "vanilla (single relational store)"
		if hybrid {
			name = "hybrid (relational + parallel + materialized join)"
		}
		fmt.Printf("%-52s %9s for %d join results\n", name, elapsed.Round(time.Microsecond), total)
		fmt.Printf("  join-by-word rewriting: %v\n\n", p.Rewriting())
	}

	// Parallel aggregation delegated to the Spark stand-in: total ad
	// revenue per search word, computed map/combine/reduce style.
	d, err := scenario.NewBDB(cfg, true)
	if err != nil {
		log.Fatal(err)
	}
	spark := d.Sys.Stores.Par["spark"]
	it, err := spark.Aggregate(context.Background(), "uservisits", nil, []int{5}, "sum", 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := engine.DrainBatches(it)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Ad revenue per search word (parallel aggregation over",
		spark.Partitions(), "partitions):")
	for _, r := range rows {
		fmt.Printf("  %-10s %10.2f\n", r[0], float64(r[1].(value.Float)))
	}
}
