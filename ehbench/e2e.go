package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
)

// setupReps is how many times a run repeats its set-up; setup_s is
// their median. One set-up takes a few milliseconds, so a single one
// is at the mercy of the scheduler and page faults.
const setupReps = 51

// runEndToEnd is the untraced run: it measures set-up, then sweeps
// the workload for the run's seconds and reports the end-to-end
// metrics.
func runEndToEnd(e *env) (*outcome, error) {
	src, d, setups, _, err := setUp(e)
	if err != nil {
		return nil, err
	}
	if d != nil {
		defer stopDaemon(d)
	}
	ref, err := newReference(src)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.put("setup_s", median(setups), "s", len(setups))
	ref.simMetrics(out)
	if e.w.service {
		return out, serviceRun(e, d, ref, out)
	}
	err = measure(out, e.seconds, func(deadline time.Time) error {
		return sweepLoop(e, src, ref, deadline, out)
	})
	return out, err
}

// setUp decodes and compiles the workload setupReps times — scenario
// decode, artifact load and test-input synthesis, everything a sweep
// pays before its first device — and, for a service workload, starts
// a daemon each time. It returns the last source and daemon, every
// set-up time and every compile time.
func setUp(e *env) (src *cli.FleetSource, d *daemon, setups, compiles []float64, err error) {
	for k := 0; k < setupReps; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, nil, nil, err
			}
			d = nil
		}
		// Collect the previous repetition's garbage first, so no set-up
		// pays for another's.
		runtime.GC()
		start := time.Now()
		if src, err = e.w.compile(e.fx.dir, e.seed); err != nil {
			return nil, nil, nil, nil, err
		}
		compiles = append(compiles, time.Since(start).Seconds())
		if e.w.service {
			if d, err = startDaemon(e.path("fleetd-"+strconv.Itoa(k)), e.fx.dir, e.nproc); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return src, d, setups, compiles, nil
}

// serviceRun drives the daemon in a closed loop with nproc clients for
// the run's seconds, after one job has warmed its memo and artifact
// cache: devices_per_cpu_s counts devices whose rows were delivered,
// per second of process CPU time over the loop (see cpuSeconds), and
// job_s_* are percentiles of job time, from submit to the last row
// received.
func serviceRun(e *env, d *daemon, ref *reference, out *outcome) error {
	c := newClient(d.url, e.nproc)
	defer c.close()
	body, err := e.w.jobRequest(e.seed)
	if err != nil {
		return err
	}
	warm, err := c.runJob(body, ref, false, new(bytes.Buffer))
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	out.add(warm.check)
	return measure(out, e.seconds, func(deadline time.Time) error {
		start := time.Now()
		cpu0, err := cpuSeconds()
		if err != nil {
			return err
		}
		runs, err := closedLoop(c, e.nproc, body, ref, deadline, 0, false)
		cpu1, cpuErr := cpuSeconds()
		took := time.Since(start).Seconds()
		for _, err := range []error{err, cpuErr} {
			if err != nil {
				return err
			}
		}
		var durs []float64
		devices := 0
		for _, jr := range runs {
			out.add(jr.check)
			durs = append(durs, jr.total.Seconds())
			devices += jr.check.delivered()
		}
		fmt.Fprintf(os.Stderr, "ehbench: %.1f devices per wall second\n", float64(devices)/took)
		out.put("devices_per_cpu_s", float64(devices)/(cpu1-cpu0), "1/s", len(runs))
		out.put("job_s_p50", median(durs), "s", len(durs))
		out.put("job_s_p90", quantile(durs, 0.9), "s", len(durs))
		return nil
	})
}

// measure runs loop for the run's seconds with the peak-RSS meter
// reset, then records peak_rss_mb and ok_frac.
func measure(out *outcome, seconds int, loop func(deadline time.Time) error) error {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	err := loop(time.Now().Add(time.Duration(seconds) * time.Second))
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.put("peak_rss_mb", rss, "MB", 1)
	out.put("ok_frac", 1-float64(out.tally.failed)/float64(max(1, out.tally.attempted)), "ratio", out.tally.attempted)
	return nil
}

// sweepWorkers is the RunStream worker count of every CLI sweep the
// benchmark times. On a host that lends the benchmark two vCPUs, two
// workers made single sweeps run at speeds up to 1.5x apart, depending
// on whether a neighbour held the second vCPU. One worker leaves the
// second vCPU to the garbage collector and the row sink.
const sweepWorkers = 1

// sweepLoop runs CLI sweeps until deadline: RunStream over every
// device with sweepWorkers workers and rows to an NDJSON file.
// devices_per_cpu_s is the median over the run's sweeps of the devices
// whose rows arrived per second of process CPU time (see cpuSeconds).
// The rate per wall second goes to standard error. A run holds only a
// dozen or so sweeps, too few for a tail percentile of sweep time with
// ten samples beyond it, so CLI runs report no job_s_* (sweep time is
// devices/rate).
func sweepLoop(e *env, src fleet.Source, ref *reference, deadline time.Time, out *outcome) error {
	var rates, wallRates []float64
	path := e.path("rows.ndjson")
	for len(rates) == 0 || time.Now().Before(deadline) {
		sink, err := fleet.NewNDJSONFile(path, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		cpu0, err := cpuSeconds()
		if err != nil {
			return err
		}
		_, err = fleet.RunStream(src, fleet.StreamOptions{Workers: sweepWorkers, Sink: sink})
		cerr := sink.Close()
		cpu1, cpuErr := cpuSeconds()
		took := time.Since(start).Seconds()
		for _, err := range []error{err, cerr, cpuErr} {
			if err != nil {
				return err
			}
		}
		rows, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d := ref.check(rows)
		out.add(d)
		rates = append(rates, float64(d.delivered())/(cpu1-cpu0))
		wallRates = append(wallRates, float64(d.delivered())/took)
	}
	fmt.Fprintf(os.Stderr, "ehbench: %.1f devices per wall second (median of %d sweeps)\n", median(wallRates), len(wallRates))
	out.put("devices_per_cpu_s", median(rates), "1/s", len(rates))
	return nil
}

// cpuSeconds returns the CPU time this process has used, in seconds:
// every thread's, the garbage collector's included. Unlike the wall
// clock it leaves out the time the hypervisor runs other guests on the
// benchmark's vCPUs ("steal" in /proc/stat). On a shared 2-vCPU host
// that time came in bursts lasting minutes and took 5-15% of the
// vCPUs: the middle half of ten runs' wall rates spread by up to 39%
// of their median, while the CPU-time rates of the same sweeps stayed
// within a few per cent.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// resetPeakRSS restarts the kernel's peak-resident-set counter
// (VmHWM) for this process, so the peak covers the measured phase and
// not fixture training. Where the kernel refuses, the peak covers the
// whole process and a warning says so.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "ehbench: peak RSS covers the whole process: %v\n", err)
	}
}

// peakRSSMB reads this process's peak resident set in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", "self", "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
