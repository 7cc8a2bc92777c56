package main

// The traced run: per-layer metrics, measured from outside the
// program by timing calls into each layer's public functions. It has
// two parts. (a) RunStream — and the fleetd client — with timing
// wrappers around Source.At, Sink.Consume and Flusher.Flush gives the
// cli, fleet and fleetd numbers. (b) The per-device stepper
// (stepper.go) re-executes the fleet to time the memo, device set-up,
// engine boots, energy accounting and the intermittent runner.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ehdl/internal/device"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

func runTraced(e *env) (*outcome, error) {
	src, d, _, compiles, err := setUp(e)
	if err != nil {
		return nil, err
	}
	if d == nil {
		// Every workload's jobs are timed on the service too.
		if d, err = startDaemon(e.path("fleetd"), e.fx.dir, e.nproc); err != nil {
			return nil, err
		}
	}
	defer stopDaemon(d)
	ref, err := newReference(src)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.put("cli.compile_s", median(compiles), "s", len(compiles))
	t := newTracer()

	// (a) The pipeline under timing wrappers, alternating with
	// untraced sweeps for the tracing overhead.
	p := &pipeline{e: e, src: src}
	if err := p.measure(t, ref, out); err != nil {
		return nil, err
	}

	// (a) The fleetd client: per-job latencies, watched live.
	t.setPart("service")
	if err := traceService(e, d, ref, t, out); err != nil {
		return nil, err
	}

	plain, err := plumbing(e, src, ref, out)
	if err != nil {
		return nil, err
	}

	// (b) The traced stepper.
	t.setPart("stepper")
	var tracedRows bytes.Buffer
	traced := newStepper(t, newMemo(e.w), fleet.NewNDJSONSink(&tracedRows))
	if err := traced.run(src); err != nil {
		return nil, err
	}
	out.add(ref.check(tracedRows.Bytes()))
	if diff := compareTotals(plain, traced, ref); diff != "" {
		out.wrong++
		if out.problem == "" {
			out.problem = diff
		}
	}
	stepperMetrics(t.layers("stepper"), traced, out)

	// The memo layer on this fleet: a memo-on stepper pass whatever the
	// workload's own setting (on citywide and slowharvest the pipeline
	// bypasses the memo). Its rows must still equal the reference.
	t.setPart("memo")
	var memoRows bytes.Buffer
	memoed := newStepper(t, memo.New(0), fleet.NewNDJSONSink(&memoRows))
	if err := memoed.run(src); err != nil {
		return nil, err
	}
	out.add(ref.check(memoRows.Bytes()))
	memoMetrics(t.layers("memo"), memoed.memo.Stats(), out)

	if err := os.MkdirAll(filepath.Join(workDir, "trace"), 0o755); err != nil {
		return nil, err
	}
	e.traceFile = filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.ndjson", e.w.name, e.seed))
	if err := t.write(e.traceFile); err != nil {
		return nil, err
	}
	return out, nil
}

// plumbingPairs is how many times the plumbing comparison alternates
// RunStream and the per-device stepper.
const plumbingPairs = 2

// plumbing records fleet.plumbing_frac: the share of RunStream's host
// time that the per-device stepper does not need — chunk dispatch,
// reorder, commit — with both untraced on one worker and the
// workload's memo setting, alternated plumbingPairs times. It returns
// the last untraced stepper for the traced one to be checked against.
func plumbing(e *env, src fleet.Source, ref *reference, out *outcome) (*stepper, error) {
	var rs, drv []float64
	var plain *stepper
	for k := 0; k < plumbingPairs; k++ {
		var rows bytes.Buffer
		start := time.Now()
		if _, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 1, Sink: fleet.NewNDJSONSink(&rows), Memo: newMemo(e.w)}); err != nil {
			return nil, err
		}
		rs = append(rs, time.Since(start).Seconds())
		out.add(ref.check(rows.Bytes()))

		rows.Reset()
		plain = newStepper(nil, newMemo(e.w), fleet.NewNDJSONSink(&rows))
		start = time.Now()
		if err := plain.run(src); err != nil {
			return nil, err
		}
		drv = append(drv, time.Since(start).Seconds())
		out.add(ref.check(rows.Bytes()))
	}
	out.put("fleet.plumbing_frac", 1-median(drv)/median(rs), "ratio", plumbingPairs)
	return plain, nil
}

// newMemo returns a fresh memo when the workload uses one.
func newMemo(w *workload) *memo.Memo {
	if w.memo {
		return memo.New(0)
	}
	return nil
}

// put records one metric with its sample count.
func (o *outcome) put(name string, v float64, unit string, n int) {
	o.metrics[name] = metric{v, unit}
	o.samples[name] = n
}

// pipeline runs the workload's RunStream sweeps as the end-to-end run
// does (sweepWorkers workers, rows to an NDJSON file, a fresh memo when the
// workload uses one), checkpointed as every fleetd job is, so that
// Flusher.Flush runs too.
type pipeline struct {
	e   *env
	src fleet.Source
}

// sweep runs one sweep, traced when t is set, and returns its host
// time and rows.
func (p *pipeline) sweep(t *tracer) (time.Duration, []byte, error) {
	path := p.e.path("pipeline.ndjson")
	file, err := fleet.NewNDJSONFile(path, 0)
	if err != nil {
		return 0, nil, err
	}
	opts := fleet.StreamOptions{
		Workers:    sweepWorkers,
		Sink:       file,
		Memo:       newMemo(p.e.w),
		Checkpoint: &fleet.CheckpointSpec{Path: p.e.path("pipeline.ckpt"), Fingerprint: p.e.w.fingerprint(p.e.seed)},
	}
	src := p.src
	if t != nil {
		opts.Sink = tracedSink{file, t}
		src = tracedSource{src, t}
	}
	start := time.Now()
	_, err = fleet.RunStream(src, opts)
	cerr := file.Close()
	took := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if cerr != nil {
		return 0, nil, cerr
	}
	rows, err := os.ReadFile(path)
	return took, rows, err
}

// Untraced/traced sweep pairs the pipeline measurement alternates.
const (
	minPairs = 3
	maxPairs = 8
)

// measure alternates untraced and traced sweeps for a third of the
// run's seconds (minPairs to maxPairs pairs) and records the cli and
// fleet per-layer metrics and the tracing overhead.
func (p *pipeline) measure(t *tracer, ref *reference, out *outcome) error {
	var plain, traced []float64
	var bytesPerRow float64
	deadline := time.Now().Add(time.Duration(p.e.seconds) * time.Second / 3)
	for len(traced) < minPairs || (len(traced) < maxPairs && time.Now().Before(deadline)) {
		for _, tr := range []*tracer{nil, t} {
			took, rows, err := p.sweep(tr)
			if err != nil {
				return err
			}
			out.add(ref.check(rows))
			rate := float64(p.src.Len()) / took.Seconds()
			if tr == nil {
				plain = append(plain, rate)
			} else {
				traced = append(traced, rate)
				bytesPerRow = float64(len(rows)) / float64(p.src.Len())
			}
		}
	}
	l := t.layers("pipeline")
	out.put("cli.at_ns", l["cli.at"].perCall(), "ns", l["cli.at"].count)
	out.put("fleet.sink_ns", l["fleet.sink"].perCall(), "ns", l["fleet.sink"].count)
	out.put("fleet.sink_bytes", bytesPerRow, "B", len(traced))
	out.put("fleet.flushes", float64(l["fleet.flush"].count)/float64(len(traced)), "count", len(traced))
	out.put("fleet.flush_s", l["fleet.flush"].perCall()/1e9, "s", l["fleet.flush"].count)
	out.put("trace.overhead_frac", 1-median(traced)/median(plain), "ratio", len(traced))
	return nil
}

// tracedSource times Source.At.
type tracedSource struct {
	fleet.Source
	t *tracer
}

func (s tracedSource) At(i int) (fleet.Scenario, error) {
	id := s.t.begin("cli.at", 0, i)
	defer s.t.end(id)
	return s.Source.At(i)
}

// tracedSink times Sink.Consume and Flusher.Flush on an NDJSON file.
type tracedSink struct {
	file *fleet.NDJSONFile
	t    *tracer
}

func (s tracedSink) Consume(i int, r fleet.Result) error {
	id := s.t.begin("fleet.sink", 0, i)
	defer s.t.end(id)
	return s.file.Consume(i, r)
}

func (s tracedSink) Flush() error {
	id := s.t.begin("fleet.flush", 0, -1)
	defer s.t.end(id)
	return s.file.Flush()
}

// traceService times jobs on the daemon with nproc/2 clients in a
// closed loop, each following its job's rows and events at once, so
// the run stays within nproc connections.
func traceService(e *env, d *daemon, ref *reference, t *tracer, out *outcome) error {
	clients := max(1, e.nproc/2)
	c := newClient(d.url, 2*clients)
	defer c.close()
	body, err := e.w.jobRequest(e.seed)
	if err != nil {
		return err
	}
	if e.w.memo {
		// The service's memo is process-wide: warm it, as a
		// long-running daemon's is.
		warm, err := c.runJob(body, ref, false, new(bytes.Buffer))
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		out.add(warm.check)
	}
	runs, err := closedLoop(c, clients, body, ref, time.Now().Add(time.Duration(e.seconds)*time.Second), e.w.jobs, true)
	if err != nil {
		return err
	}
	var submit, queue, first, tail, disk []float64
	for _, jr := range runs {
		out.add(jr.check)
		n, err := d.jobBytes(jr.id)
		if err != nil {
			return err
		}
		submit = append(submit, ms(jr.submit))
		queue = append(queue, ms(jr.queue))
		first = append(first, ms(jr.firstRow))
		tail = append(tail, ms(jr.tail))
		disk = append(disk, float64(n))
		t.record("fleetd.job", jr.id, jr.start, jr.total)
		t.record("fleetd.submit", jr.id, jr.start, jr.submit)
		t.record("fleetd.queue", jr.id, jr.start, jr.queue)
		t.record("fleetd.tail", jr.id, jr.start.Add(jr.total-jr.tail), jr.tail)
	}
	out.put("fleetd.submit_ms", median(submit), "ms", len(runs))
	out.put("fleetd.queue_ms", median(queue), "ms", len(runs))
	out.put("fleetd.first_row_ms", median(first), "ms", len(runs))
	out.put("fleetd.tail_ms", median(tail), "ms", len(runs))
	out.put("fleetd.disk_bytes", median(disk), "B", len(runs))
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// compareTotals checks that tracing left the simulation untouched:
// the traced stepper's device counts equal the untraced stepper's, and
// its simulated fleet results equal the reference run's.
func compareTotals(plain, traced *stepper, ref *reference) string {
	a, b := plain.tot, traced.tot
	if a.simulated != b.simulated || a.cycles != b.cycles || a.energy != b.energy || a.boots != b.boots || a.ffBoots != b.ffBoots {
		return fmt.Sprintf("device counts differ between the untraced and traced stepper: %+v vs %+v", a, b)
	}
	rep := traced.agg.Report()
	if rep.CompletionRate != ref.report.CompletionRate || rep.WallP50Sec != ref.report.WallP50Sec {
		return fmt.Sprintf("traced stepper's fleet report differs from the reference: completion %v vs %v, wall p50 %v vs %v",
			rep.CompletionRate, ref.report.CompletionRate, rep.WallP50Sec, ref.report.WallP50Sec)
	}
	return ""
}

// memoMetrics records the memo layer's per-layer metrics from a
// memo-on stepper pass: probe (input hash plus harvest fingerprint) and
// lookup time per call, the share of lookups that hit, and the fills.
func memoMetrics(l map[string]layer, st memo.Stats, out *outcome) {
	lookups := st.Hits() + st.Misses
	out.put("memo.probe_ns", l["memo.probe"].perCall(), "ns", l["memo.probe"].count)
	out.put("memo.lookup_ns", l["memo.lookup"].perCall(), "ns", l["memo.lookup"].count)
	out.put("memo.hit_ratio", float64(st.Hits())/float64(max(1, lookups)), "ratio", int(lookups))
	out.put("memo.fills", float64(st.Fills), "count", 1)
}

// engineLabels are the runtimes in per-engine metric names.
var engineLabels = []string{"ace", "flex", "sonic", "tails", "baseline"}

// stepperMetrics records the simulate-side per-layer metrics from the
// traced stepper's spans and counts. Per-device figures are over the
// devices the stepper simulated.
func stepperMetrics(l map[string]layer, d *stepper, out *outcome) {
	tot := d.tot
	sim := float64(max(1, tot.simulated))
	perDev := func(v float64) float64 { return v / sim }

	out.put("exec.setup_ns", l["exec.setup"].perCall(), "ns", l["exec.setup"].count)
	for _, k := range engineLabels {
		b := l["engine."+k+".boot"]
		out.put("engine."+k+".boot_self_ns", b.selfPerCall(), "ns", b.count)
	}

	run := l["intermittent.run"]
	out.put("harvest.draw_calls", perDev(float64(tot.drawCalls)), "count", tot.simulated)
	out.put("harvest.draw_ns", float64(tot.drawNs)/float64(max(1, tot.drawCalls)), "ns", int(tot.drawCalls))
	out.put("harvest.draw_share", float64(tot.drawNs)/float64(max(1, run.total)), "ratio", tot.simulated)
	out.put("harvest.recharge_calls", perDev(float64(l["harvest.recharge"].count)), "count", tot.simulated)
	out.put("harvest.recharge_ns", l["harvest.recharge"].perCall(), "ns", l["harvest.recharge"].count)

	out.put("intermittent.run_ns", run.perCall(), "ns", run.count)
	out.put("intermittent.self_ns", run.selfPerCall(), "ns", run.count)
	out.put("intermittent.boots", perDev(float64(tot.boots)), "count", tot.simulated)
	out.put("intermittent.ff_boots", perDev(float64(tot.ffBoots)), "count", tot.simulated)

	out.put("device.cycles", perDev(float64(tot.cycles)), "cycles", tot.simulated)
	for c := device.Category(0); c < device.NumCategories; c++ {
		out.put("device.energy_nj."+c.String(), perDev(tot.energy[c]), "nJ", tot.simulated)
	}
	out.put("fleet.agg_ns", l["fleet.agg"].perCall(), "ns", l["fleet.agg"].count)
}
