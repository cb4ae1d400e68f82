// Command benchtables regenerates every experiment table of EXPERIMENTS.md
// (the per-claim reproduction index is the E1–E14 runners' doc comments
// in internal/bench/experiments.go).
//
// Usage:
//
//	benchtables                 # standard scale, ~minutes
//	benchtables -scale smoke    # seconds (CI)
//	benchtables -scale full     # the largest documented sizes
//	benchtables -o EXPERIMENTS-tables.md
//	benchtables -render BENCH_vizing.json,BENCH_dynamic.json
//
// -render skips the experiment runners and instead renders recorded
// benchmark documents (the BENCH_*.json files at the repository root) as
// markdown tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/distec/distec/internal/bench"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "standard", "smoke|standard|full")
		outFile   = flag.String("o", "", "write tables to file (default stdout)")
		render    = flag.String("render", "", "render recorded BENCH_*.json files (comma-separated) instead of running experiments")
	)
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *render != "" {
		for _, path := range strings.Split(*render, ",") {
			if err := bench.RenderBenchFile(w, strings.TrimSpace(path)); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		return
	}
	start := time.Now()
	fmt.Fprintf(w, "# Experiment tables (scale: %s, generated %s)\n\n", *scaleFlag, time.Now().Format(time.RFC3339))
	if err := bench.WriteAll(w, scale); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchtables: done in %v\n", time.Since(start).Round(time.Millisecond))
}
