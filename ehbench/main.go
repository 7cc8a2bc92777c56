// Command ehbench is the repository benchmark. It drives the real
// fleet pipeline — scenario source (cli) → run memo → engines on the
// simulated device → harvest energy accounting → intermittent runner →
// fleet.RunStream sink/commit → the fleetd service — on one of three
// workloads and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash ehbench/run.sh --workload citywide --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports per-layer metrics from a separate traced
// run. Every run first computes a reference output (workers=1, memo
// off, no checkpoint) and checks every delivery of the rows against
// it; a missing, differing or surplus row, or a fleetd job that does
// not end done, makes the command exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts row outcomes: every attempted row is either delivered
// correct or failed (missing, differing, or a setup-error row).
// Failures are measured (ok_frac); every failure but the reference's
// own setup-error rows also makes a run incorrect.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// workDir holds each run's scratch directory and the trace output;
// run.sh builds into the same directory.
const workDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload: citywide, slowharvest or replay")
	seed := flag.Int64("seed", 1, "workload seed (jitter draws and synthesized test inputs)")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced per-layer run; 0: untraced end-to-end run")
	repo := flag.String("repo", ".", "repository root (holds examples/scenarios)")
	flag.Parse()

	correct, err := run(*repo, *workload, *seed, *seconds, *trace == 1)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "ehbench: %v\n", err)
		os.Exit(2)
	case !correct:
		os.Exit(1)
	}
}

// run performs one benchmark run and prints its result; correct is
// false when any delivery of the rows failed other than by the
// reference's own setup-error rows.
func run(repo, name string, seed int64, seconds int, traced bool) (correct bool, err error) {
	if seconds < 1 {
		return false, fmt.Errorf("--seconds must be >= 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	w, err := loadWorkload(repo, name)
	if err != nil {
		return false, err
	}
	fx, err := newFixture(repo, dir)
	if err != nil {
		return false, err
	}
	env := &env{fx: fx, w: w, seed: seed, seconds: seconds, dir: dir, nproc: runtime.NumCPU()}
	fmt.Fprintf(os.Stderr, "ehbench: workload %s, seed %d, %d devices, nproc %d\n", w.name, seed, w.devices, env.nproc)

	var out *outcome
	if traced {
		out, err = runTraced(env)
	} else {
		out, err = runEndToEnd(env)
	}
	if err != nil {
		return false, err
	}
	printProvenance(env, out)

	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   out.metrics,
	}
	if out.problem != "" {
		fmt.Fprintf(os.Stderr, "ehbench: %d of %d rows failed (%d wrong); first: %s\n",
			out.tally.failed, out.tally.attempted, out.wrong, out.problem)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// outcome is what a run hands back for printing.
type outcome struct {
	tally   tally
	metrics map[string]metric
	// samples counts the observations behind each metric that is a
	// median or percentile.
	samples map[string]int
	// wrong counts the failures that make the run incorrect (see
	// delivery.wrong); problem describes the first failure ("" when
	// none failed).
	wrong   int
	problem string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}}
}

// printProvenance prints the run's identity on its own line ahead of
// the result: fixture and input fingerprints, seed, host shape and
// the sample count behind each metric.
func printProvenance(e *env, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.metrics[k]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, out.samples[k])
	}
	prov := struct {
		Workload            string         `json:"workload"`
		Seed                int64          `json:"seed"`
		Devices             int            `json:"devices"`
		Nproc               int            `json:"nproc"`
		GoVersion           string         `json:"go_version"`
		ModelDigest         string         `json:"model_digest"`
		ScenarioFingerprint string         `json:"scenario_fingerprint"`
		Samples             map[string]int `json:"samples"`
		Trace               string         `json:"trace_file,omitempty"`
	}{
		Workload:            e.w.name,
		Seed:                e.seed,
		Devices:             e.w.devices,
		Nproc:               e.nproc,
		GoVersion:           runtime.Version(),
		ModelDigest:         e.fx.digest,
		ScenarioFingerprint: e.w.fingerprint(e.seed),
		Samples:             out.samples,
		Trace:               e.traceFile,
	}
	line, _ := json.Marshal(prov)
	fmt.Println(string(line))
}

// env is the shared state of one run.
type env struct {
	fx      *fixture
	w       *workload
	seed    int64
	seconds int
	nproc   int
	// dir is the run's scratch directory, removed on exit.
	dir       string
	traceFile string
}

// path returns a file name inside the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// add counts one delivery's check and keeps the first difference seen.
func (o *outcome) add(d delivery) {
	o.tally.add(d.tally)
	o.wrong += d.wrong
	if o.problem == "" && d.diff != "" {
		o.problem = d.diff
	}
}
