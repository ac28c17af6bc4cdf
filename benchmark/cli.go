package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"numfabric/internal/obs"
)

// buildCLI builds cmd/numfabric from the checkout's source into
// buildDir and records the one-time build_s (information only).
func (r *runner) buildCLI() error {
	bin, err := filepath.Abs(filepath.Join(buildDir, "numfabric"))
	if err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/numfabric")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/numfabric: %w", err)
	}
	r.buildS = time.Since(start).Seconds()
	r.cliBin = bin
	return nil
}

// cliFingerprintColumns are the deterministic leapfct.csv columns the
// cli-leapfct fingerprint hashes (the CLI exports no per-flow times).
var cliFingerprintColumns = []string{"median_norm_fct", "p95_norm_fct", "p99_norm_fct",
	"events", "allocs", "solved_flows", "max_component"}

// playCLI is one play of cli-leapfct: what a user types, with default
// flags. Everything — spans and layer numbers included — is read from
// outside: the stdout stream's timing, the -out CSV, rusage. So every
// play is as good as a traced one and costs nothing extra. hooks adds
// -trace-out, which attaches the CLI's own span tracer, progress and
// metrics hooks: the one play that prices them.
func (r *runner) playCLI(w *workloadSpec, seed uint64, hooks bool) (playResult, error) {
	res := playResult{Workload: w.Name, Seed: seed, Attempted: w.Flows, Layers: map[string]float64{}}
	csvDir := filepath.Join(r.outDir, "cli")
	csvPath := filepath.Join(csvDir, "leapfct.csv")
	if err := os.Remove(csvPath); err != nil && !os.IsNotExist(err) {
		return res, err
	}
	args := []string{"-experiment", "leapfct", "-scale", "full",
		"-seed", strconv.FormatUint(seed, 10), "-out", csvDir}
	if hooks {
		// Tens of megabytes at this scale, and nothing reads it.
		engineTrace := filepath.Join(r.outDir, "cli-engine-trace.json")
		args = append(args, "-trace-out", engineTrace)
		defer os.Remove(engineTrace)
	}
	cmd := exec.Command(r.cliBin, args...)
	cmd.Env = playEnv()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	// The result row is the first line that starts with a number (the
	// load); its last field is Engine.Run's wall time, rounded to 1 ms.
	var rowAt, printedRun time.Duration
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if rowAt != 0 || len(f) < 2 {
			continue
		}
		if _, err := strconv.ParseFloat(f[0], 64); err == nil {
			rowAt = time.Since(start)
			printedRun, _ = time.ParseDuration(f[len(f)-1])
		}
	}
	err = cmd.Wait()
	wall := time.Since(start)
	if err != nil {
		return res, fmt.Errorf("numfabric %s: %w", strings.Join(args, " "), err)
	}
	fillUsage(&res, cmd.ProcessState, wall)

	row, err := readCSVRow(csvPath)
	if err != nil {
		return res, err
	}
	// The CLI reports finished flows only as a rate over Engine.Run's
	// wall time, which it prints to the millisecond: the finished count
	// is checked to that precision.
	rate := row["flows_per_s"]
	if !(rate > 0) {
		return res, fmt.Errorf("%s: no positive flows_per_s", csvPath)
	}
	res.Finished = w.Flows
	if est, slack := rate*printedRun.Seconds(), rate*0.0005+1; est < float64(w.Flows)-slack {
		res.Finished = int(est)
		res.fail(w.Flows-res.Finished, fmt.Sprintf("CLI row reports about %d finished flows of %d", res.Finished, w.Flows))
	}
	engineRun := float64(w.Flows) / rate
	res.SetupS = rowAt.Seconds() - engineRun

	fp := newFingerprint()
	for _, col := range cliFingerprintColumns {
		fp.add(row[col])
	}
	fp.store(&res)
	l := res.Layers
	l["sim.finished"] = float64(res.Finished)
	l["sim.fct_norm_median"] = row["median_norm_fct"]
	l["sim.fct_norm_p99"] = row["p99_norm_fct"]
	l["cli.wall_s"] = res.WallS
	l["cli.engine_run_s"] = engineRun
	l["cli.outside_run_s"] = res.WallS - engineRun
	l["cli.user_s"] = res.UserS
	l["cli.sys_s"] = res.SysS
	for ph := obs.Phase(0); ph < obs.PhaseCount; ph++ {
		l["cli.phase."+obs.PhaseName(ph)+"_s"] = row[obs.PhaseName(ph)+"_ns"] / 1e9
	}
	l["leap.events"] = row["events"]
	l["leap.solves"] = row["allocs"]
	l["leap.solved_flows"] = row["solved_flows"]
	l["leap.max_component"] = row["max_component"]
	l["leap.alloc_work_ratio"] = row["full_solve_flows"] / max(row["solved_flows"], 1)
	// From outside, Engine.Run can only be placed as ending when the
	// result row appears (the FCT summary in between is charged to it).
	runStart := int64((rowAt.Seconds() - engineRun) * 1e9)
	res.Spans = []span{
		{Name: "cli.to_result_row", End: int64(rowAt), Parent: -1},
		{Name: "cli.engine_run", Start: runStart, End: int64(rowAt), Parent: 0},
		{Name: "cli.after_row", Start: int64(rowAt), End: int64(wall), Parent: -1},
	}
	return res, nil
}

// readCSVRow reads a one-row CSV into a column → value map.
func readCSVRow(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != 2 {
		return nil, fmt.Errorf("%s: want a header and one row, got %d records", path, len(recs))
	}
	row := make(map[string]float64, len(recs[0]))
	for i, col := range recs[0] {
		v, err := strconv.ParseFloat(recs[1][i], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: column %s: %w", path, col, err)
		}
		row[col] = v
	}
	return row, nil
}
