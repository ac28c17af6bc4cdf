// Command benchmark is the repository's benchmark: six named
// workloads, end-to-end metrics measured from outside with every play
// in a fresh child process, and a per-layer ledger from one traced play
// per workload. See README.md for what each name means and for the
// internal API surface this package is allowed to touch.
//
// It is run from the repository root through its bootstrap script:
//
//	bash benchmark/run.sh -seed 1 -out benchmark/out/latest.json
//	bash benchmark/run.sh -diff a.json b.json
//	bash benchmark/run.sh --workload poisson-wf --seed 1 --seconds 20 --trace 0
//
// The first form is the whole benchmark: it prints every metric by name
// with its unit, writes the record and trace-<workload>.json files, and
// exits non-zero if any flow failed a correctness check. The second
// compares two records against the metrics' bounds. The third is the
// driver's entry (BENCHMARK.json): one workload, one JSON object on the
// last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// buildDir receives the built numfabric binary (run.sh puts this
// program and the Go build cache there too).
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result (driver mode)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "time budget of one workload's untraced plays (4 to 6 rounds over its panel are made regardless)")
		traceOn  = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced play")
		out      = flag.String("out", "benchmark/out/latest.json", "full run: where to write the record; traces go beside it")
		doDiff   = flag.Bool("diff", false, "compare two records: -diff a.json b.json")

		play   = flag.String("play", "", "internal: run one play of this workload in this process")
		t0     = flag.Int64("t0", 0, "internal: the parent's clock just before exec, Unix ns")
		traced = flag.Bool("traced", false, "internal: make it the traced play")
		ref    = flag.Bool("ref", false, "internal: make it the reference check")
	)
	flag.Parse()
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	switch {
	case *play != "":
		w := findWorkload(*play)
		if w == nil || *t0 == 0 {
			fatal(fmt.Errorf("bad play request %q", *play))
		}
		var rec *spanRecorder
		start := time.Unix(0, *t0)
		if *traced {
			rec = &spanRecorder{t0: start}
		}
		res := runPlay(w, *seed, w.Flows, rec, *ref, start)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return

	case *doDiff:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -diff a.json b.json"))
		}
		a, err := readRecord(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readRecord(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !diff(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	r := &runner{exe: exe, outDir: filepath.Dir(*out), log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if w.Kind == kindCLI {
			if err := r.buildCLI(); err != nil {
				fatal(err)
			}
		}
		res := runOne(r, w, *seed, *seconds, *traceOn != 0)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	if err := r.buildCLI(); err != nil {
		fatal(err)
	}
	ok, err := runAll(r, *seed, *seconds, *out, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: fail_frac > 0")
		os.Exit(1)
	}
}
