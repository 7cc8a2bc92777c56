package main

// The per-device stepper re-executes a fleet one device at a time
// through the same public functions RunStream's worker path calls —
// memo.NewProbe/Lookup/Fill, harvest.NewCapacitor, device.New,
// exec.NewModelStore, core.NewEngine, exec.RunIntermittent,
// fleet.Agg.Observe and the NDJSON sink — so that each layer can be
// timed from outside. Traced, it wraps the device's Supply and the
// engine to time every boot, recharge and energy draw; untraced, it
// runs the bare calls. Its rows must be byte-identical to RunStream's.

import (
	"fmt"
	"time"

	"ehdl/internal/core"
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

// devTotals sums device-side counts over the devices the stepper
// simulated (memo hits and setup errors simulate nothing).
type devTotals struct {
	simulated int
	cycles    uint64
	energy    [device.NumCategories]float64
	boots     uint64
	ffBoots   uint64
	// Energy draws, counted by the traced Supply only.
	drawCalls int64
	drawNs    int64
}

// stepper runs a fleet serially, device by device.
type stepper struct {
	t    *tracer    // nil: untraced
	memo *memo.Memo // nil: memo off
	agg  *fleet.Agg
	sink fleet.Sink
	tot  devTotals
}

func newStepper(t *tracer, m *memo.Memo, sink fleet.Sink) *stepper {
	return &stepper{t: t, memo: m, agg: fleet.NewAgg(fleet.DefaultExactPercentiles), sink: sink}
}

// run drives every device of src into the aggregator and the sink.
func (d *stepper) run(src fleet.Source) error {
	for i := 0; i < src.Len(); i++ {
		root := d.t.begin("device", 0, i)
		var r fleet.Result
		if s, err := src.At(i); err != nil {
			r = fleet.Result{
				Name:      fmt.Sprintf("dev%d", i),
				Engine:    "unknown",
				Profile:   "unknown",
				Predicted: -1,
				Diagnosis: fleet.SetupErrorDiagnosis,
				Err:       fmt.Errorf("fleet: scenario %d: %w", i, err),
			}
		} else {
			r = d.device(i, root, s)
		}
		id := d.t.begin("fleet.agg", root, i)
		d.agg.Observe(r)
		d.t.end(id)
		id = d.t.begin("fleet.sink", root, i)
		err := d.sink.Consume(i, r)
		d.t.end(id)
		d.t.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// device runs one scenario through the memo when it is on: replay on
// a hit, simulate and fill on a miss.
func (d *stepper) device(i, root int, s fleet.Scenario) fleet.Result {
	if d.memo == nil {
		return d.simulate(i, root, s)
	}
	id := d.t.begin("memo.probe", root, i)
	probe, ok := memo.NewProbe(memo.Device{
		Engine:           string(s.Engine),
		VoltageOblivious: core.VoltageOblivious(s.Engine),
		Model:            s.Model,
		Input:            s.Input,
		Config:           s.Setup.Config,
		Profile:          s.Setup.Profile,
		Flex:             s.Setup.FlexConfig,
		Runner:           s.Setup.Runner,
	})
	d.t.end(id)
	if !ok {
		return d.simulate(i, root, s)
	}
	id = d.t.begin("memo.lookup", root, i)
	out, kind := d.memo.Lookup(probe)
	d.t.end(id)
	if kind != memo.Miss {
		return fleet.Result{
			Name:          s.Name,
			Engine:        s.Engine,
			Profile:       fleet.ProfileLabel(s.Setup.Profile),
			Completed:     out.Completed,
			Predicted:     out.Predicted,
			Boots:         out.Boots,
			ActiveSec:     out.ActiveSec,
			WallSec:       out.WallSec,
			EnergymJ:      out.EnergymJ,
			Diagnosis:     out.Diagnosis,
			FastForwarded: out.FastForwarded,
			Err:           out.Err,
			Memo:          kind.String(),
		}
	}
	r := d.simulate(i, root, s)
	id = d.t.begin("memo.fill", root, i)
	d.memo.Fill(probe, memo.Outcome{
		Profile:       r.Profile,
		Completed:     r.Completed,
		Predicted:     r.Predicted,
		Boots:         r.Boots,
		ActiveSec:     r.ActiveSec,
		WallSec:       r.WallSec,
		EnergymJ:      r.EnergymJ,
		Diagnosis:     r.Diagnosis,
		FastForwarded: r.FastForwarded,
		Err:           r.Err,
	})
	d.t.end(id)
	r.Memo = kind.String()
	return r
}

// simulate runs one device on its own simulated MCU.
func (d *stepper) simulate(i, root int, s fleet.Scenario) fleet.Result {
	res := fleet.Result{
		Name:      s.Name,
		Engine:    s.Engine,
		Profile:   fleet.ProfileLabel(s.Setup.Profile),
		Predicted: -1,
	}
	if s.Model == nil {
		res.Err = fmt.Errorf("fleet: scenario %q has no model", s.Name)
		res.Diagnosis = fleet.SetupErrorDiagnosis
		return res
	}
	var dt *devTrace
	if d.t != nil {
		dt = &devTrace{t: d.t, dev: i, boot: "engine." + engineLabel(s.Engine) + ".boot"}
	}
	id := d.t.begin("exec.setup", root, i)
	dev, eng, err := build(s, dt)
	d.t.end(id)
	if err != nil {
		res.Err = err
		res.Diagnosis = fleet.SetupErrorDiagnosis
		return res
	}
	runner := s.Setup.Runner
	if runner == nil {
		runner = &intermittent.Runner{}
	}
	id = d.t.begin("intermittent.run", root, i)
	if dt != nil {
		dt.run = id
	}
	rep := exec.RunIntermittent(dev, eng, runner)
	d.t.end(id)

	res.Completed = rep.Intermittent.Completed
	res.Predicted = rep.Predicted
	res.Boots = rep.Intermittent.Boots
	res.ActiveSec = rep.Stats.ActiveSeconds
	res.WallSec = rep.Stats.WallSeconds
	res.EnergymJ = rep.Stats.EnergymJ()
	res.Diagnosis = string(rep.Intermittent.Diagnosis.Kind)
	res.FastForwarded = rep.Intermittent.Diagnosis.FastForwarded
	res.Err = rep.Intermittent.Err

	d.tot.simulated++
	d.tot.cycles += rep.Stats.ActiveCycles
	for c, e := range rep.Stats.Energy {
		d.tot.energy[c] += e
	}
	d.tot.boots += rep.Stats.Boots
	d.tot.ffBoots += rep.Intermittent.Diagnosis.FastForwarded
	if dt != nil {
		d.tot.drawCalls += dt.drawCalls
		d.tot.drawNs += dt.drawNs
	}
	return res
}

// build sets one device up the way core.InferIntermittent does,
// wrapping the supply and the engine when dt is set.
func build(s fleet.Scenario, dt *devTrace) (*device.Device, exec.Engine, error) {
	capacitor, err := harvest.NewCapacitor(s.Setup.Config, s.Setup.Profile)
	if err != nil {
		return nil, nil, err
	}
	var supply device.Supply = capacitor
	if dt != nil {
		supply = dt.wrapSupply(capacitor)
	}
	dev := device.New(device.DefaultCosts(), supply)
	store, err := exec.NewModelStore(dev, s.Model)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(s.Engine, dev, store, s.Input, s.Setup.FlexConfig)
	if err != nil {
		return nil, nil, err
	}
	if dt != nil {
		eng = dt.wrapEngine(eng)
	}
	return dev, eng, nil
}

// engineLabel names an engine kind in metric names.
func engineLabel(k core.EngineKind) string {
	switch k {
	case core.EngineBase:
		return "baseline"
	case core.EngineACEFLEX:
		return "flex"
	}
	return string(k)
}

// devTrace is one device's tracing state, shared by its wrapped
// Supply and Engine.
type devTrace struct {
	t    *tracer
	dev  int
	run  int    // the device's intermittent.run span
	boot string // span name of the engine's boots
	// Energy draws so far: too frequent for a span each, they are
	// folded into the enclosing boot span.
	drawCalls int64
	drawNs    int64
}

// tracedSupply times every call into the harvest supply.
type tracedSupply struct {
	inner device.Supply
	dt    *devTrace
}

func (s *tracedSupply) Draw(nJ, dt float64) bool {
	start := time.Now()
	ok := s.inner.Draw(nJ, dt)
	s.dt.drawNs += int64(time.Since(start))
	s.dt.drawCalls++
	return ok
}

func (s *tracedSupply) Voltage() float64 { return s.inner.Voltage() }

func (s *tracedSupply) Recharge() (float64, bool) {
	id := s.dt.t.begin("harvest.recharge", s.dt.run, s.dt.dev)
	off, ok := s.inner.Recharge()
	s.dt.t.end(id)
	return off, ok
}

// steadySupply is the optional supply surface the intermittent
// runner's analytic fast-forward asserts for; harvest.Capacitor has it.
type steadySupply interface {
	CycleToken() (harvest.CycleToken, bool)
	CycleHarvestJ() float64
	SkipSteadyCycles(k uint64, wallSec, cycleJ float64)
}

// tracedSteadySupply is tracedSupply for supplies with the steady-
// cycle surface, which it forwards so fast-forward verdicts are
// unchanged.
type tracedSteadySupply struct {
	*tracedSupply
	steady steadySupply
}

func (s tracedSteadySupply) CycleToken() (harvest.CycleToken, bool) { return s.steady.CycleToken() }
func (s tracedSteadySupply) CycleHarvestJ() float64                 { return s.steady.CycleHarvestJ() }
func (s tracedSteadySupply) SkipSteadyCycles(k uint64, wallSec, cycleJ float64) {
	s.steady.SkipSteadyCycles(k, wallSec, cycleJ)
}

// wrapSupply wraps s, exposing the steady-cycle surface exactly when
// s has it.
func (dt *devTrace) wrapSupply(s device.Supply) device.Supply {
	ts := &tracedSupply{inner: s, dt: dt}
	if st, ok := s.(steadySupply); ok {
		return tracedSteadySupply{ts, st}
	}
	return ts
}

// tracedEngine times every boot; the energy draws made during a boot
// are folded into its span, so the span's self time is the engine's
// own work (its kernels and the device cost model) alone.
type tracedEngine struct {
	inner exec.Engine
	dt    *devTrace
}

func (e *tracedEngine) Boot(d *device.Device) error {
	id := e.dt.t.begin(e.dt.boot, e.dt.run, e.dt.dev)
	ns, calls := e.dt.drawNs, e.dt.drawCalls
	// Deferred so a boot that browns out (a PowerFailure panic the
	// runner recovers) is closed too.
	defer func() { e.dt.t.endFolded(id, e.dt.drawNs-ns, e.dt.drawCalls-calls) }()
	return e.inner.Boot(d)
}

func (e *tracedEngine) EngineName() string { return e.inner.EngineName() }

func (e *tracedEngine) Output() []fixed.Q15 { return e.inner.Output() }

// reportingEngine adds the progress counter of an engine that has one.
type reportingEngine struct {
	*tracedEngine
	p intermittent.ProgressReporter
}

func (e reportingEngine) Progress() uint64 { return e.p.Progress() }

// skippingEngine adds the fast-forward surface of a Skippable engine.
type skippingEngine struct {
	*tracedEngine
	s intermittent.Skippable
}

func (e skippingEngine) Progress() uint64          { return e.s.Progress() }
func (e skippingEngine) ProgressTarget() uint64    { return e.s.ProgressTarget() }
func (e skippingEngine) SkipBoots(k, delta uint64) { e.s.SkipBoots(k, delta) }

// wrapEngine wraps e, exposing exactly the optional runner interfaces
// e implements, so the runner's stagnation and fast-forward verdicts
// see the same program.
func (dt *devTrace) wrapEngine(e exec.Engine) exec.Engine {
	te := &tracedEngine{inner: e, dt: dt}
	if s, ok := e.(intermittent.Skippable); ok {
		return skippingEngine{te, s}
	}
	if p, ok := e.(intermittent.ProgressReporter); ok {
		return reportingEngine{te, p}
	}
	return te
}
