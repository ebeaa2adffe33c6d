// Command benchtables regenerates every table in the paper's evaluation —
// the three running-time slowdown tables (SPARCstation 2, SPARCstation 10,
// Pentium 90), the object-code size expansion table, and the postprocessor
// table — plus the elision table, the temporal/concurrent hazard table and
// the ablation tables DESIGN.md calls out.
//
// Usage:
//
//	benchtables [-ablations]
package main

import (
	"flag"
	"fmt"
	"os"

	"gcsafety/internal/bench"
	"gcsafety/internal/machine"
)

type tableFunc func(machine.Config) (*bench.Table, error)

func main() {
	ablations := flag.Bool("ablations", false, "also print the ablation tables")
	flag.Parse()

	fmt.Println("Reproduction of the tables in \"Simple Garbage-Collector-Safety\" (Boehm, PLDI 1996).")
	fmt.Println("Numbers are slowdown/expansion percentages relative to the unpreprocessed optimized build.")
	fmt.Println()

	for _, cfg := range machine.Configs() {
		show(bench.SlowdownTable, cfg)
	}
	tables := []tableFunc{bench.CodeSizeTable, bench.PostprocessorTable, bench.ElisionTable, bench.HazardTable}
	if *ablations {
		tables = append(tables, bench.AblationCallVsAsm, bench.AblationCopySuppression,
			bench.AblationIncDecExpansion, bench.AblationBaseHeuristic, bench.AblationCallSiteOnly)
	}
	for _, f := range tables {
		show(f, machine.SPARCstation10())
	}
}

// show builds one table on cfg and prints it, exiting on failure.
func show(f tableFunc, cfg machine.Config) {
	t, err := f(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(t)
}
