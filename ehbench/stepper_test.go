package main

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

// shrink scales a workload's declared counts down by div (at least one
// device per spec) and sets its resize, so a test runs it quickly.
func shrink(t *testing.T, w *workload, div, resize int) *workload {
	t.Helper()
	data, err := scaleCounts(w.scenario, div)
	if err != nil {
		t.Fatal(err)
	}
	small, err := newWorkload(w.name, data, resize, w.memo, w.jobs)
	if err != nil {
		t.Fatal(err)
	}
	return small
}

// TestStepperMatchesRunStream pins the per-device stepper to the
// pipeline it times: on all three workloads, at small size, its rows
// are byte-identical to RunStream's, traced or not, and tracing
// changes no device count.
func TestStepperMatchesRunStream(t *testing.T) {
	fx, err := newFixture("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		div, resize int
	}{
		{"citywide", 10, 0},
		{"slowharvest", 1, 24},
		{"replay", 10, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := loadWorkload("..", tc.name)
			if err != nil {
				t.Fatal(err)
			}
			w = shrink(t, w, tc.div, tc.resize)
			src, err := w.compile(fx.dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 2, Sink: fleet.NewNDJSONSink(&want), Memo: newMemo(w)}); err != nil {
				t.Fatal(err)
			}

			var plainRows, tracedRows bytes.Buffer
			plain := newStepper(nil, newMemo(w), fleet.NewNDJSONSink(&plainRows))
			if err := plain.run(src); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			tr.setPart("stepper")
			traced := newStepper(tr, newMemo(w), fleet.NewNDJSONSink(&tracedRows))
			if err := traced.run(src); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plainRows.Bytes(), want.Bytes()) {
				t.Errorf("untraced stepper rows differ from RunStream's")
			}
			if !bytes.Equal(tracedRows.Bytes(), want.Bytes()) {
				t.Errorf("traced stepper rows differ from RunStream's")
			}
			if plain.tot.simulated == 0 {
				t.Fatalf("no device was simulated")
			}
			a, b := plain.tot, traced.tot
			b.drawCalls, b.drawNs = 0, 0
			if a != b {
				t.Errorf("device counts differ: untraced %+v, traced %+v", a, b)
			}
			if traced.tot.drawCalls == 0 {
				t.Errorf("the traced supply saw no energy draws")
			}

			// Every recharge went through the traced supply, and every
			// simulated device ran under a traced engine.
			l := tr.layers("stepper")
			boots := 0
			for _, k := range engineLabels {
				boots += l["engine."+k+".boot"].count
			}
			if got, want := uint64(l["harvest.recharge"].count)+traced.tot.ffBoots, traced.tot.boots; got != want {
				t.Errorf("recharge spans + fast-forwarded boots = %d, want the %d boots", got, want)
			}
			if boots < traced.tot.simulated {
				t.Errorf("%d boot spans for %d simulated devices", boots, traced.tot.simulated)
			}
			if w.memo && l["memo.lookup"].count != src.Len() {
				t.Errorf("%d memo lookups for %d devices", l["memo.lookup"].count, src.Len())
			}
		})
	}
}

// stubEngine is a minimal engine; the embedding types below add the
// runner's optional interfaces.
type stubEngine struct{}

func (stubEngine) Boot(*device.Device) error { return nil }
func (stubEngine) EngineName() string        { return "stub" }
func (stubEngine) Output() []fixed.Q15       { return nil }

type stubReporter struct{ stubEngine }

func (stubReporter) Progress() uint64 { return 0 }

type stubSkipper struct{ stubReporter }

func (stubSkipper) ProgressTarget() uint64    { return 0 }
func (stubSkipper) SkipBoots(k, delta uint64) {}

// TestWrappersKeepOptionalInterfaces checks that the traced engine and
// supply expose exactly the optional interfaces of what they wrap, so
// the runner's stagnation and fast-forward decisions are unchanged.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	dt := &devTrace{t: newTracer()}
	for _, e := range []exec.Engine{stubEngine{}, stubReporter{}, stubSkipper{}} {
		w := dt.wrapEngine(e)
		_, rIn := e.(intermittent.ProgressReporter)
		_, rOut := w.(intermittent.ProgressReporter)
		_, sIn := e.(intermittent.Skippable)
		_, sOut := w.(intermittent.Skippable)
		if rIn != rOut || sIn != sOut {
			t.Errorf("%T: reporter %v->%v, skippable %v->%v", e, rIn, rOut, sIn, sOut)
		}
	}

	capacitor, err := harvest.NewCapacitor(harvest.PaperConfig(), harvest.ConstantProfile{Watts: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []device.Supply{capacitor, device.Continuous{}} {
		_, in := s.(steadySupply)
		_, out := dt.wrapSupply(s).(steadySupply)
		if in != out {
			t.Errorf("%T: steady-cycle surface %v->%v", s, in, out)
		}
	}
}

// TestCheckFailsOnEveryWrongRow pins the output gate: a missing,
// differing or surplus row is wrong, while the reference's own
// setup-error rows only count as failed.
func TestCheckFailsOnEveryWrongRow(t *testing.T) {
	want := []byte("{\"device\":0}\n{\"device\":1,\"diag\":\"setup-error\"}\n{\"device\":2}\n")
	r := &reference{digest: sha256.Sum256(want), lines: splitRows(want), setupErrors: 1}
	cases := []struct {
		name                              string
		got                               string
		failed, missing, wrong, delivered int
	}{
		{"identical", string(want), 1, 0, 0, 3},
		{"missing tail", "{\"device\":0}\n{\"device\":1,\"diag\":\"setup-error\"}\n", 2, 1, 1, 2},
		{"empty", "", 3, 3, 3, 0},
		{"differing", "{\"device\":0}\n{\"device\":1,\"diag\":\"setup-error\"}\n{\"device\":9}\n", 2, 0, 1, 3},
		{"surplus", string(want) + "{\"device\":3}\n", 1, 0, 1, 3},
	}
	for _, tc := range cases {
		d := r.check([]byte(tc.got))
		if d.attempted != 3 || d.failed != tc.failed || d.missing != tc.missing || d.wrong != tc.wrong || d.delivered() != tc.delivered {
			t.Errorf("%s: got attempted %d failed %d missing %d wrong %d delivered %d, want 3 %d %d %d %d",
				tc.name, d.attempted, d.failed, d.missing, d.wrong, d.delivered(), tc.failed, tc.missing, tc.wrong, tc.delivered)
		}
		if (d.wrong == 0) != (d.diff == "") {
			t.Errorf("%s: wrong %d but diff %q", tc.name, d.wrong, d.diff)
		}
	}
}
