package exec_test

import (
	"errors"
	"math/rand"
	"testing"

	"ehdl/internal/ace"
	"ehdl/internal/baseline"
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
	"ehdl/internal/sonic"
	"ehdl/internal/tails"
)

// testModel quantizes a randomly initialized model (no training —
// bit-exactness does not care about accuracy).
func testModel(t *testing.T, arch *nn.Arch, seed int64) *quant.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := arch.Build(rng)
	calib := make([][]float64, 6)
	for i := range calib {
		x := make([]float64, arch.InLen())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// denseArch exercises conv/pool/relu/flatten/dense for the
// uncompressed-model engines.
func denseArch() *nn.Arch {
	return &nn.Arch{
		Name: "test-dense", InShape: [3]int{1, 8, 8}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3},
			{Kind: "pool", InC: 4, InH: 6, InW: 6, PoolSize: 2},
			{Kind: "relu", N: 4 * 3 * 3},
			{Kind: "flatten", N: 36},
			{Kind: "dense", In: 36, Out: 16},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 4},
		},
	}
}

// bcmArch adds a padded BCM layer for the ACE engine.
func bcmArch() *nn.Arch {
	return &nn.Arch{
		Name: "test-bcm", InShape: [3]int{1, 8, 8}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3},
			{Kind: "pool", InC: 4, InH: 6, InW: 6, PoolSize: 2},
			{Kind: "relu", N: 4 * 3 * 3},
			{Kind: "flatten", N: 36},
			// WeightNorm exercises the cosine-normalization path in
			// every engine; q=5 pads 36→40.
			{Kind: "bcm", In: 36, Out: 16, K: 8, WeightNorm: true},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 4},
		},
	}
}

func randInput(n int, seed int64) []fixed.Q15 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]fixed.Q15, n)
	for i := range x {
		x[i] = fixed.FromFloat(rng.Float64()*2 - 1)
	}
	return x
}

type engineFactory struct {
	name string
	// bcm selects the engine's BCM discipline: true = FFT (Algorithm 1,
	// the ACE engines), false = time domain (the baselines).
	bcm  bool
	make func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error)
}

func factories(t *testing.T) []engineFactory {
	return []engineFactory{
		{"base", false, func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error) {
			return baseline.New(d, s, in)
		}},
		{"sonic", false, func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error) {
			return sonic.New(d, s, in)
		}},
		{"tails", false, func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error) {
			return tails.New(d, s, in)
		}},
		{"ace", true, func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error) {
			return ace.New(d, s, in, nil)
		}},
		{"ace+flex", true, func(d *device.Device, s *exec.ModelStore, in []fixed.Q15) (exec.Engine, error) {
			// The crash tests use microfarad-scale capacitors, whose
			// warn-to-brownout window is far smaller than the paper's
			// 100 µF setup; warn earlier and sample more often so the
			// window still covers one checkpoint (the default config is
			// matched to the paper capacitor).
			fx, err := flex.NewController(d, 8, flex.Config{VWarn: 3.0, SampleStride: 2})
			if err != nil {
				return nil, err
			}
			return ace.New(d, s, in, fx)
		}},
	}
}

func modelFor(t *testing.T, bcm bool) *quant.Model {
	// Every engine runs the same compressed model; bcm only selects
	// the reference discipline. The dense arch is exercised separately.
	_ = bcm
	return testModel(t, bcmArch(), 11)
}

func refFor(f engineFactory, m *quant.Model) *quant.Executor {
	if f.bcm {
		return quant.NewExecutor(m)
	}
	return quant.NewTimeExecutor(m)
}

// TestEnginesMatchReferenceExecutor is the core fidelity invariant:
// every engine, on bench power, produces logits bit-identical to the
// host reference executor for its BCM discipline.
func TestEnginesMatchReferenceExecutor(t *testing.T) {
	for _, f := range factories(t) {
		m := modelFor(t, f.bcm)
		ref := refFor(f, m)
		for trial := int64(0); trial < 5; trial++ {
			in := randInput(64, 100+trial)
			want := ref.Forward(in)

			d := device.New(device.DefaultCosts(), device.Continuous{})
			store, err := exec.NewModelStore(d, m)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := f.make(d, store, in)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			rep, err := exec.RunContinuous(d, eng)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			if len(rep.Logits) != len(want) {
				t.Fatalf("%s: %d logits, want %d", f.name, len(rep.Logits), len(want))
			}
			for i := range want {
				if rep.Logits[i] != want[i] {
					t.Fatalf("%s trial %d: logit %d = %d, reference %d",
						f.name, trial, i, rep.Logits[i], want[i])
				}
			}
		}
	}
}

// TestCrashConsistency runs each checkpointing engine under a tiny
// capacitor that forces many outages at many different cut points; the
// final logits must be bit-identical to the continuous run.
func TestCrashConsistency(t *testing.T) {
	// Several capacitances move the outage points across the whole
	// execution, exercising resume at conv pixels, pool/relu strides,
	// dense rows, and every BCM stage. Harvest power is kept low so
	// the device cannot ride through on inflow alone.
	caps := []float64{0.68e-6, 0.82e-6, 1.0e-6, 1.3e-6, 1.8e-6, 2.2e-6, 3.3e-6}
	for _, f := range factories(t) {
		if f.name == "base" || f.name == "ace" {
			continue // no intermittent support: covered by the DNF test
		}
		m := modelFor(t, f.bcm)
		in := randInput(64, 7)
		want := refFor(f, m).Forward(in)

		totalBoots := uint64(0)
		for _, c := range caps {
			cfg := harvest.PaperConfig()
			cfg.CapacitanceF = c
			supply, err := harvest.NewCapacitor(cfg, harvest.ConstantProfile{Watts: 4e-4})
			if err != nil {
				t.Fatal(err)
			}
			d := device.New(device.DefaultCosts(), supply)
			store, err := exec.NewModelStore(d, m)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := f.make(d, store, in)
			if err != nil {
				t.Fatal(err)
			}
			rep := exec.RunIntermittent(d, eng, &intermittent.Runner{})
			if !rep.Intermittent.Completed {
				t.Fatalf("%s cap=%v: did not complete: %+v", f.name, c, rep.Intermittent)
			}
			totalBoots += rep.Intermittent.Boots
			for i := range want {
				if rep.Logits[i] != want[i] {
					t.Fatalf("%s cap=%v (boots=%d): logit %d = %d, continuous %d",
						f.name, c, rep.Intermittent.Boots, i, rep.Logits[i], want[i])
				}
			}
		}
		// Efficient engines ride out the larger capacitors in a single
		// charge; the sweep as a whole must still have injected plenty
		// of outages for this engine.
		if totalBoots < 5 {
			t.Fatalf("%s: only %d outages across the sweep — not exercising failures",
				f.name, totalBoots)
		}
	}
}

// TestNonPersistentEnginesNeverFinish reproduces Fig. 7(b)'s "X": BASE
// and plain ACE stagnate when one inference exceeds one charge.
func TestNonPersistentEnginesNeverFinish(t *testing.T) {
	for _, f := range factories(t) {
		if f.name != "base" && f.name != "ace" {
			continue
		}
		m := modelFor(t, f.bcm)
		in := randInput(64, 8)
		cfg := harvest.PaperConfig()
		cfg.CapacitanceF = 1.0e-6 // far too small for a full inference
		supply, err := harvest.NewCapacitor(cfg, harvest.ConstantProfile{Watts: 4e-4})
		if err != nil {
			t.Fatal(err)
		}
		d := device.New(device.DefaultCosts(), supply)
		store, err := exec.NewModelStore(d, m)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := f.make(d, store, in)
		if err != nil {
			t.Fatal(err)
		}
		rep := exec.RunIntermittent(d, eng, &intermittent.Runner{})
		if rep.Intermittent.Completed {
			t.Fatalf("%s: completed despite no persistence", f.name)
		}
		if !errors.Is(rep.Intermittent.Err, intermittent.ErrStagnant) {
			t.Fatalf("%s: err = %v, want stagnation", f.name, rep.Intermittent.Err)
		}
	}
}

// TestProgressMonotonic verifies the runner's progress invariant holds
// for every checkpointing engine across many outages.
func TestProgressMonotonic(t *testing.T) {
	// The runner itself panics if progress regresses; completing the
	// crash-consistency run above implies monotonicity. Here we
	// additionally check progress lands at a positive value.
	f := factories(t)[4] // ace+flex
	m := modelFor(t, true)
	in := randInput(64, 9)
	cfg := harvest.PaperConfig()
	cfg.CapacitanceF = 2.2e-6
	supply, err := harvest.NewCapacitor(cfg, harvest.ConstantProfile{Watts: 4e-4})
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(device.DefaultCosts(), supply)
	store, err := exec.NewModelStore(d, m)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := f.make(d, store, in)
	if err != nil {
		t.Fatal(err)
	}
	rep := exec.RunIntermittent(d, eng, &intermittent.Runner{})
	if !rep.Intermittent.Completed {
		t.Fatalf("did not complete: %+v", rep.Intermittent)
	}
	pr, ok := eng.(intermittent.ProgressReporter)
	if !ok {
		t.Fatal("ace+flex must report progress")
	}
	if pr.Progress() == 0 && rep.Intermittent.Boots > 0 {
		t.Error("progress still zero after completing across outages")
	}
}

// TestCheckpointCostsOnlyUnderFailures: under continuous power FLEX
// must cost (almost) nothing — no checkpoint energy at all, and total
// energy within 2% of plain ACE (the paper's 1–2% claim is for the
// intermittent case; continuous should be even tighter).
func TestCheckpointCostsOnlyUnderFailures(t *testing.T) {
	m := modelFor(t, true)
	in := randInput(64, 10)

	run := func(withFlex bool) device.Stats {
		d := device.New(device.DefaultCosts(), device.Continuous{})
		store, err := exec.NewModelStore(d, m)
		if err != nil {
			t.Fatal(err)
		}
		var fx *flex.Controller
		if withFlex {
			if fx, err = flex.NewController(d, 8, flex.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := ace.New(d, store, in, fx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.RunContinuous(d, eng); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}

	plain := run(false)
	flexed := run(true)
	if flexed.Energy[device.CatCheckpoint] != 0 {
		t.Errorf("checkpoint energy %v nJ under continuous power",
			flexed.Energy[device.CatCheckpoint])
	}
	// On this toy model the fixed per-boundary bookkeeping is a larger
	// fraction than at paper scale (the experiment harness checks the
	// 1–2% figure on the real models); 5% bounds it here.
	if flexed.TotalEnergynJ > plain.TotalEnergynJ*1.05 {
		t.Errorf("FLEX continuous overhead: %v vs %v nJ",
			flexed.TotalEnergynJ, plain.TotalEnergynJ)
	}
}

// TestSRAMCeiling: the ACE engine on the largest paper model must fit
// the 8 KB SRAM (the whole point of circular buffering + staging).
func TestSRAMCeiling(t *testing.T) {
	m := testModel(t, nn.OKGArch(256, 128, 64), 21)
	d := device.New(device.DefaultCosts(), device.Continuous{})
	store, err := exec.NewModelStore(d, m)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := flex.NewController(d, 256, flex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ace.New(d, store, randInput(784, 3), fx); err != nil {
		t.Fatalf("OKG model does not fit: %v (SRAM used %d)", err, d.SRAMUsed())
	}
	if d.SRAMUsed() > d.Costs().SRAMBytes {
		t.Errorf("SRAM used %d exceeds %d", d.SRAMUsed(), d.Costs().SRAMBytes)
	}
	t.Logf("OKG ACE SRAM footprint: %d bytes", d.SRAMUsed())
}

// TestEnginesMatchReferenceOnDenseModel repeats the fidelity check on
// the all-dense architecture (no BCM layers: the two disciplines
// coincide).
func TestEnginesMatchReferenceOnDenseModel(t *testing.T) {
	m := testModel(t, denseArch(), 31)
	ref := quant.NewExecutor(m)
	in := randInput(64, 55)
	want := ref.Forward(in)
	for _, f := range factories(t) {
		d := device.New(device.DefaultCosts(), device.Continuous{})
		store, err := exec.NewModelStore(d, m)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := f.make(d, store, in)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		rep, err := exec.RunContinuous(d, eng)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for i := range want {
			if rep.Logits[i] != want[i] {
				t.Fatalf("%s: dense-model logit %d = %d, want %d", f.name, i, rep.Logits[i], want[i])
			}
		}
	}
}

// TestBCMDisciplinesAgree: the FFT and time-domain reference paths
// must agree within fixed-point tolerance (they compute the same real
// values with different rounding).
func TestBCMDisciplinesAgree(t *testing.T) {
	m := testModel(t, bcmArch(), 41)
	fft := quant.NewExecutor(m)
	tim := quant.NewTimeExecutor(m)
	for trial := int64(0); trial < 5; trial++ {
		in := randInput(64, 200+trial)
		a := fft.Forward(in)
		b := tim.Forward(in)
		for i := range a {
			diff := int(a[i]) - int(b[i])
			if diff < 0 {
				diff = -diff
			}
			// Logits at Q15; allow ~2% of full scale for the FFT
			// path's extra rounding stages.
			if diff > 700 {
				t.Fatalf("trial %d logit %d: fft %d vs time %d", trial, i, a[i], b[i])
			}
		}
	}
}

// TestInputLengthValidation: every engine rejects a wrong-size input.
func TestInputLengthValidation(t *testing.T) {
	for _, f := range factories(t) {
		m := modelFor(t, f.bcm)
		d := device.New(device.DefaultCosts(), device.Continuous{})
		store, err := exec.NewModelStore(d, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.make(d, store, randInput(7, 1)); err == nil {
			t.Errorf("%s accepted a bad input length", f.name)
		}
	}
}

func TestArgmax(t *testing.T) {
	if got := exec.Argmax([]fixed.Q15{3, 9, 2}); got != 1 {
		t.Errorf("Argmax = %d", got)
	}
	if got := exec.Argmax(nil); got != -1 {
		t.Errorf("Argmax(nil) = %d", got)
	}
	if got := exec.Argmax([]fixed.Q15{5, 5}); got != 0 {
		t.Errorf("Argmax tie = %d, want first", got)
	}
}
