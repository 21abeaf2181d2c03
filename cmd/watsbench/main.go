// Command watsbench regenerates the tables and figures of the WATS paper
// (Chen et al., IPDPS 2012) on the discrete-event AMC simulator.
//
// Usage:
//
//	watsbench -experiment all
//	watsbench -experiment fig6 -seeds 10
//	watsbench -experiment fig8 -csv
//
// Experiments: motivation, table1, table2, fig6, fig7, fig8, fig9, fig10,
// ablation, policies, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wats/internal/experiments"
	"wats/internal/report"
	"wats/internal/sched"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "which experiment to run: motivation|table1|table2|fig6|fig7|fig8|fig9|fig10|ablation|policies|all")
		seeds   = flag.Int("seeds", 5, "number of replication seeds (paper: 10 runs)")
		batches = flag.Int("batches", 0, "override batches/waves per run (0 = workload default)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir  = flag.String("out", "", "also write each table to <out>/<name>.{txt,csv}")
	)
	flag.Parse()

	opt := experiments.Options{Batches: *batches}
	for s := 1; s <= *seeds; s++ {
		opt.Seeds = append(opt.Seeds, uint64(s))
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "watsbench:", err)
			os.Exit(1)
		}
		outDirectory = *outDir
	}

	if err := run(*exp, opt, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "watsbench:", err)
		os.Exit(1)
	}
}

// outDirectory, when set, receives a copy of every table (.txt, .csv)
// and every grid's plot data (.dat.csv).
var outDirectory string

// saved numbers a slug's repeats within one run (fig6, fig6_2, ...).
var saved = map[string]int{}

func save(slug, ext, data string) {
	if outDirectory == "" {
		return
	}
	saved[slug+ext]++
	if n := saved[slug+ext]; n > 1 {
		slug = fmt.Sprintf("%s_%d", slug, n)
	}
	if err := os.WriteFile(filepath.Join(outDirectory, slug+ext), []byte(data), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "watsbench: write:", err)
	}
}

func emitNamed(slug string, t *report.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	save(slug, ".txt", t.String())
	save(slug, ".csv", t.CSV())
}

// writeGridData writes the plot-friendly numeric CSV for a grid.
func writeGridData(slug string, g *experiments.Grid) {
	save(slug, ".dat.csv", experiments.GridCSV(g))
}

func run(exp string, opt experiments.Options, csv bool) error {
	switch exp {
	case "motivation":
		r, err := experiments.Motivation(opt)
		if err != nil {
			return err
		}
		emitNamed("motivation", r.Render(), csv)
	case "table1":
		emitNamed("table1", experiments.Table1(), csv)
	case "table2":
		emitNamed("table2", experiments.Table2(), csv)
	case "fig6":
		grids, err := experiments.Fig6(opt)
		if err != nil {
			return err
		}
		for _, g := range grids {
			emitNamed("fig6", experiments.RenderGrid(g, "%.3f"), csv)
			writeGridData("fig6", g)
		}
	case "fig7":
		g, err := experiments.Fig7(opt)
		if err != nil {
			return err
		}
		emitNamed("fig7", experiments.RenderGrid(g, "%.2f"), csv)
		writeGridData("fig7", g)
	case "fig8":
		g, err := experiments.Fig8(opt)
		if err != nil {
			return err
		}
		emitNamed("fig8", experiments.RenderGrid(g, "%.2f"), csv)
		writeGridData("fig8", g)
	case "fig9":
		g, err := experiments.Fig9(opt)
		if err != nil {
			return err
		}
		emitNamed("fig9", experiments.RenderGrid(g, "%.2f"), csv)
		writeGridData("fig9", g)
	case "fig10":
		g, err := experiments.Fig10(opt)
		if err != nil {
			return err
		}
		emitNamed("fig10", experiments.RenderGrid(g, "%.3f"), csv)
		writeGridData("fig10", g)
	case "policies":
		emitNamed("policies", policiesTable(), csv)
	case "ablation":
		grids, err := experiments.Ablations(opt)
		if err != nil {
			return err
		}
		for _, g := range grids {
			emitNamed("ablation", experiments.RenderGrid(g, "%.3f"), csv)
		}
	case "all":
		for _, e := range []string{"policies", "motivation", "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation"} {
			if err := run(e, opt, csv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// policiesTable renders the strategy layer's kind → (spawn, allocation,
// acquisition) table: one row per built-in policy kind, both engines
// construct each from the same Strategy.
func policiesTable() *report.Table {
	t := report.NewTable("policy kinds: spawn / allocation / acquisition triples",
		"kind", "spawn", "allocation", "acquisition")
	for _, tr := range sched.Describe() {
		t.AddRow(string(tr.Kind), tr.Spawn, tr.Allocation, tr.Acquire)
	}
	return t
}
