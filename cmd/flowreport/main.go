// Command flowreport analyzes a flow-lifecycle trace written by
// -flowtrace-out (obs.FlowTracer.WriteJSONL): the slowest flows, where
// the tail lost its service time (per-bottleneck-link attribution),
// and per-link utilization. It is the offline counterpart of the live
// /flows and /links debug endpoints — point it at the JSONL file a run
// left behind.
//
// Usage:
//
//	go run ./cmd/flowreport [-top N] [-tail frac] [-csv out.csv] trace.jsonl
//
// -top bounds the slow-flow table; -tail sets the slowest fraction of
// finished flows whose lost service the attribution table aggregates
// (1 aggregates every finished flow in the trace); -csv additionally
// writes the per-link table as CSV. Exit status is 0 when the file
// parses and contains at least a summary line, 1 otherwise.
package main

import (
	"cmp"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"numfabric/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on args: the report goes to stdout, errors to
// stderr, and the exit status is returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	top := fs.Int("top", 10, "slow flows listed in the top table")
	tail := fs.Float64("tail", 0.01, "slowest fraction of finished flows aggregated in the attribution table (1 = all)")
	csvOut := fs.String("csv", "", "also write the per-link attribution table as CSV to this path")
	if fs.Parse(args); fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: flowreport [-top N] [-tail frac] [-csv out.csv] trace.jsonl")
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "flowreport:", err)
		return 1
	}
	defer f.Close()

	tr, err := obs.ReadFlowTrace(f)
	if err != nil {
		fmt.Fprintln(stderr, "flowreport:", err)
		return 1
	}
	summary, links, flows := tr.Summary, tr.Links, tr.Finished()
	unfinished := len(tr.Flows) - len(flows)

	fmt.Fprintf(stdout, "flow trace: %d tracked, %d completed, %d kept + %d reservoir (sample %g, slowest-%d)",
		summary.Tracked, summary.Completed, summary.Kept, summary.Reservoir,
		summary.SampleRate, summary.SlowestK)
	if unfinished > 0 {
		fmt.Fprintf(stdout, ", %d still active", unfinished)
	}
	fmt.Fprintln(stdout)

	if len(flows) > 0 {
		fmt.Fprintf(stdout, "\nslowest flows (of %d finished in trace):\n", len(flows))
		fmt.Fprintf(stdout, "%10s %12s %14s %14s %10s  %s\n",
			"flow", "bytes", "fct_s", "ideal_s", "slowdown", "worst bottleneck")
		for i, fl := range flows {
			if i == *top {
				break
			}
			worst := "-"
			if len(fl.Lost) > 0 {
				w := slices.MaxFunc(fl.Lost, func(a, b obs.LinkLoss) int { return cmp.Compare(a.LostSeconds, b.LostSeconds) })
				worst = fmt.Sprintf("%.0f%% %s", 100*w.Share, nameOf(w.Name, w.Link))
			}
			// seq names the flow; id is an engine slot other flows held too.
			fmt.Fprintf(stdout, "%10d %12d %14.6g %14.6g %9.1fx  %s\n",
				fl.Seq, fl.SizeBytes, fl.FCT, fl.IdealFCT, fl.Slowdown, worst)
		}
	}

	// Tail attribution: lost service of the slowest -tail fraction,
	// grouped by bottleneck link.
	losses, n := tr.TailAttribution(*tail)
	utilOf := map[int]obs.LinkLine{}
	for _, ll := range links {
		utilOf[ll.Link] = ll
	}

	if len(losses) > 0 {
		fmt.Fprintf(stdout, "\nslowdown attribution, slowest %d of %d finished flows (lost service by bottleneck link):\n", n, len(flows))
		fmt.Fprintf(stdout, "%-28s %14s %7s %7s %9s %9s\n",
			"link", "lost_s", "share", "flows", "avg_util", "peak_util")
		for _, a := range losses {
			u, hasU := utilOf[a.Link]
			util, peak := "-", "-"
			if hasU {
				util = fmt.Sprintf("%8.1f%%", 100*u.AvgUtil)
				peak = fmt.Sprintf("%8.1f%%", 100*u.PeakUtil)
			}
			label := nameOf(a.Name, a.Link)
			// A link whose trace reports zero capacity ended the run
			// failed; mark it unless the trace's label already does.
			if hasU && u.Capacity <= 0 && !strings.Contains(label, "(dead)") {
				label += " (dead)"
			}
			fmt.Fprintf(stdout, "%-28s %14.6g %6.1f%% %7d %9s %9s\n",
				label, a.LostSeconds, 100*a.Share, a.Flows, util, peak)
		}
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, losses, utilOf); err != nil {
			fmt.Fprintln(stderr, "flowreport:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s (%d links)\n", *csvOut, len(losses))
	}
	return 0
}

// writeCSV writes the per-link attribution table to path.
func writeCSV(path string, losses []obs.LinkLoss, utilOf map[int]obs.LinkLine) error {
	cf, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(cf)
	_ = cw.Write([]string{"link", "name", "lost_seconds", "share", "flows", "avg_util", "peak_util", "flow_seconds"})
	for _, a := range losses {
		u := utilOf[a.Link]
		_ = cw.Write([]string{
			strconv.Itoa(a.Link), a.Name,
			fmt.Sprintf("%g", a.LostSeconds), fmt.Sprintf("%g", a.Share),
			strconv.Itoa(a.Flows),
			fmt.Sprintf("%g", u.AvgUtil), fmt.Sprintf("%g", u.PeakUtil),
			fmt.Sprintf("%g", u.FlowSeconds),
		})
	}
	cw.Flush()
	return errors.Join(cw.Error(), cf.Close())
}

// nameOf formats a link label, falling back to the numeric id.
func nameOf(name string, link int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("link %d", link)
}
