// Command bench is the mediator's end-to-end load benchmark: it deploys the
// scenarios in-process, drives internal/service through its public API with
// a closed-loop generator, checks answers against a brute-force oracle and
// reports end-to-end metrics (tracing off) and per-layer metrics (from a
// traced replay). See README.md; BENCHMARK.json at the repository root is
// the contract a driver runs it by.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// windowSeconds is the measured window of every workload: five sub-windows
// of two seconds.
const windowSeconds = 10

// contractLine is the last line of a single-workload run's standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all six)")
	seed := flag.Int64("seed", 1, "seed of the generated requests and write batches")
	seconds := flag.Int("seconds", windowSeconds, "length of the measured window")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics from a traced replay only; default both")
	sets := flag.Int("sets", 0, "run this many end-to-end sets, one process per run and seed, and report each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a run reported wrong answers or failed requests")

func run(only string, seed int64, seconds, trace, sets int) error {
	defs, err := workloads()
	if err != nil {
		return err
	}
	if only != "" {
		var keep []*workloadDef
		for _, w := range defs {
			if w.name == only {
				keep = append(keep, w)
			}
		}
		if keep == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		defs = keep
	}
	if sets > 0 {
		return runSets(defs, seed, seconds, sets)
	}

	outDir := "out"
	if _, err := os.Stat("bench/go.mod"); err == nil {
		outDir = "bench/out" // started from the repository root
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	opts := runOpts{seed: seed, window: time.Duration(seconds) * time.Second, warmup: warmupTime, setups: 1,
		endToEnd: trace != 1, traced: trace != 0, outDir: outDir}
	if opts.endToEnd {
		opts.setups = setupRuns
	}
	var results []*runResult
	ok := true
	for _, w := range defs {
		res, err := runWorkload(ctx, w, opts)
		if err != nil {
			return err
		}
		printResult(res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if only != "" {
		// One workload: end with the line a driver parses.
		res := results[0]
		line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
		for _, set := range []map[string]metric{res.EndToEnd, res.PerLayer} {
			for name, m := range set {
				line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
			}
		}
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

func printResult(res *runResult) {
	fmt.Printf("== %s  seed=%d clients=%d window=%gs  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Clients, res.Seconds, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("   op stream sha256 %s\n", res.StreamHash)
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, set := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for _, name := range sortedNames(set) {
			m := set[name]
			fmt.Printf("   %-40s %16.4f %-6s n=%d %s\n", name, m.Value, m.Unit, m.N, m.Rule)
		}
	}
	for _, pass := range []string{"cold", "warm"} {
		if sh := res.Shares[pass]; sh != nil {
			var parts []string
			for l, f := range sh {
				parts = append(parts, fmt.Sprintf("%s=%.0f%%", l, 100*f))
			}
			sort.Strings(parts)
			fmt.Printf("   share of %s request time: %s\n", pass, strings.Join(parts, " "))
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the repeatability runner
// needs: each end-to-end metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSets runs every workload n times end to end, each run in a process of
// its own with its own seed — as a driver would — and prints, per metric
// and workload, min/median/max and the inter-quartile spread against the
// metric's bound. It fails when a spread is outside its bound.
func runSets(defs []*workloadDef, seed int64, seconds, n int) error {
	var bf benchmarkFile
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if buf, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(buf, &bf); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			break
		}
	}
	if len(bf.EndToEnd) == 0 {
		return errors.New("BENCHMARK.json not found next to or above the working directory")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	outside := 0
	for _, w := range defs {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed+int64(i)),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line contractLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", w.name, seed+int64(i), err)
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("== %s  %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		for _, em := range bf.EndToEnd {
			xs := values[em.Name]
			sort.Float64s(xs)
			sp := spread(xs)
			verdict := "ok"
			if em.Name != "setup_s" && sp > em.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("   %-18s min=%-14.4f med=%-14.4f max=%-14.4f spread=%5.1f%% bound=%4.1f%% %s\n",
				em.Name, xs[0], median(xs), xs[len(xs)-1], 100*sp, 100*em.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d (metric, workload) pairs spread wider than their bound", outside)
	}
	return nil
}
