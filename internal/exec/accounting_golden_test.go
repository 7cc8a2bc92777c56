package exec_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

// accountingSupplies are the power setups TestEngineAccountingGolden
// runs every engine under: bench power, a square-wave harvester that
// lets the checkpointing engines finish across outages, and a constant
// trickle into a capacitor too small to hold much of an inference,
// which starves every engine into its DNF verdict or the boot limit.
var accountingSupplies = []struct {
	name     string
	maxBoots uint64
	make     func(t *testing.T) device.Supply
}{
	{"continuous", 0, func(*testing.T) device.Supply { return device.Continuous{} }},
	{"square", 0, func(t *testing.T) device.Supply {
		cfg := harvest.PaperConfig()
		cfg.CapacitanceF = 2.2e-6
		return mustCapacitor(t, cfg, harvest.SquareProfile{PeakWatts: 8e-4, Period: 0.02, Duty: 0.5})
	}},
	{"starving", 60, func(t *testing.T) device.Supply {
		cfg := harvest.PaperConfig()
		cfg.CapacitanceF = 0.47e-6
		return mustCapacitor(t, cfg, harvest.ConstantProfile{Watts: 1e-4})
	}},
}

func mustCapacitor(t *testing.T, cfg harvest.Config, p harvest.Profile) device.Supply {
	t.Helper()
	c, err := harvest.NewCapacitor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// accountingRecord renders everything a run leaves in the device's
// accounting, as exact bits: per-category energy, off and wall time,
// cycles, boots, committed NV writes, the runner's diagnosis and the
// output logits.
func accountingRecord(rep exec.Report) string {
	s := rep.Stats
	var b strings.Builder
	b.WriteString("energy=")
	for c, e := range s.Energy {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(e))
	}
	fmt.Fprintf(&b, " off=%x wall=%x cycles=%d boots=%d nv=%d",
		math.Float64bits(s.OffSeconds), math.Float64bits(s.WallSeconds),
		s.ActiveCycles, s.Boots, s.NVWrites)
	if r := rep.Intermittent; r != nil {
		fmt.Fprintf(&b, " diag=%q", r.Diagnosis.String())
	}
	fmt.Fprintf(&b, " out=%v", rep.Logits)
	return b.String()
}

// wantAccounting pins accountingRecord for every engine × supply. The
// values were generated before the device's per-op pricing table and
// word-wise NV signature existed: the host-side shortcuts must charge
// exactly the ops, cycles and joules the per-call formulas did, and
// brown out at exactly the same op.
var wantAccounting = map[string]string{
	"base/continuous":     "energy=40a9b4ccccccccc9,40bc8399999999a7,40e8adf851eb854d,40a6c7fffffffffd,40b3f70a3d70a3c0,4050000000000000,0,0,0 off=0 wall=3f6267c6b8b69553 cycles=35948 boots=0 nv=252 out=[557 8367 -9020 1635]",
	"base/square":         "energy=40a3cccccccccccc,40bac8147ae147a9,40eab0e3d70a3d71,4095433333333331,40aa833333333331,0,0,0,0 off=3fc2628240b78034 wall=3fc2ad2bb23571d1 cycles=36456 boots=7 nv=168 diag=\"frozen-progress [8-boot window]: progress stuck at 0 for 8 boots with no fresh persistent writes\" out=[]",
	"base/starving":       "energy=4082000000000000,409467ae147ae148,40c654147ae147af,4070333333333333,4084333333333333,0,0,0,0 off=3fc01b9b66f9335c wall=3fc02af1455219a7 cycles=7488 boots=7 nv=32 diag=\"frozen-progress [8-boot window]: progress stuck at 0 for 8 boots with no fresh persistent writes\" out=[]",
	"sonic/continuous":    "energy=40e3e099999999cc,0,0,40e0e15999999983,40b6b9999999997f,0,40dc5de666666726,409708ccccccccbf,0 off=0 wall=3f63abc947064ecf cycles=38420 boots=0 nv=1690 out=[557 8367 -9020 1635]",
	"sonic/square":        "energy=40e4098cccccccd2,0,0,40e0f28fffffffff,40b6cdcccccccccd,0,40dc5de66666666a,409a93fffffffffd,0 off=3fd1125460aa64c4 wall=3fd139f44d445672 cycles=38696 boots=13 nv=1691 diag=\"completed\" out=[557 8367 -9020 1635]",
	"sonic/starving":      "energy=40e364d99999999d,0,0,40e0946666666664,40b4e8fffffffffb,0,40da7e2666666661,40a41f999999999b,0 off=3ff14226809d494d wall=3ff14bc148344c33 cycles=37518 boots=60 nv=1572 diag=\"boot-limit\" out=[]",
	"tails/continuous":    "energy=40b33cccccccccc3,40bcc13333333341,40e8adf851eb854d,40a6c7fffffffffd,40b3f70a3d70a3c0,4050000000000000,40c09a7333333331,406836b851eb851e,0 off=0 wall=3f63ce2089e34331 cycles=38682 boots=0 nv=691 out=[557 8367 -9020 1635]",
	"tails/square":        "energy=40b455999999999a,40be1c7851eb851c,40e9c7bccccccccd,40a7396666666665,40b3f70a3d70a3d7,4050000000000000,40c09a7333333333,407c43851eb851eb,0 off=3fc7a339c0ebedfb wall=3fc7f604189374bd cycles=40425 boots=9 nv=691 diag=\"completed\" out=[557 8367 -9020 1635]",
	"tails/starving":      "energy=40ba2f3333333334,40beeb9999999995,40e902999999999f,40a81c3333333333,40b3f70a3d70a3d9,4060000000000000,40c1480147ae147b,409a6047ae147ae1,0 off=3feb09c4da9003e7 wall=3feb1eebf65dbfc7 cycles=41314 boots=47 nv=710 diag=\"completed\" out=[557 8367 -9020 1635]",
	"ace/continuous":      "energy=4098dcccccccccd8,40c358a3d70a3d82,40c588eb851eb858,4098ce6666666651,40b3f70a3d70a3c6,4050000000000000,0,0,0 off=0 wall=3f54c22ee41919ac cycles=20272 boots=0 nv=108 out=[549 8428 -9022 1641]",
	"ace/square":          "energy=409ff33333333329,40d6a3051eb851e6,40e04dc7ae147adc,0,40c5766666666666,0,0,0,0 off=3fc2628240b78034 wall=3fc2c74107314ca9 cycles=49192 boots=7 nv=0 diag=\"frozen-progress [8-boot window]: progress stuck at 0 for 8 boots with no fresh persistent writes\" out=[]",
	"ace/starving":        "energy=407599999999999a,40ae9b851eb851ee,40bf550a3d70a3d9,0,409e4cccccccccce,0,0,0,0 off=3fc01b9b66f9335c wall=3fc02e72da122fac cycles=9200 boots=7 nv=0 diag=\"frozen-progress [8-boot window]: progress stuck at 0 for 8 boots with no fresh persistent writes\" out=[]",
	"ace+flex/continuous": "energy=409af8ccccccccd1,40c358a3d70a3d82,40c588eb851eb858,4098ce6666666651,40b3f70a3d70a3c6,4050000000000000,0,0,4097200000000000 off=0 wall=3f55f8d2e514c22f cycles=21457 boots=0 nv=108 out=[549 8428 -9022 1641]",
	"ace+flex/square":     "energy=409e58ccccccccd1,40c4e2e147ae1478,40c8d2170a3d709f,40994ffffffffff1,40b4e970a3d70a40,4050000000000000,40b9bd051eb851ea,407dfd1eb851eb84,4099a00000000000 off=3fb502de00d1b718 wall=3fb569e2bcf91a33 cycles=25151 boots=4 nv=436 diag=\"completed\" out=[549 8428 -9022 1641]",
	"ace+flex/starving":   "energy=40a89c0000000002,40c6b76cccccccc8,40e02dde147ae148,40c166fffffffffe,40c5b30000000002,0,40b5bf6666666664,40af9b9999999992,4096800000000000 off=3fe94ff43419e2f9 wall=3fe9648472c0e7b5 cycles=40163 boots=44 nv=482 diag=\"frozen-progress [8-boot window]: progress stuck at 36 for 8 boots with no fresh persistent writes\" out=[]",
}

// TestEngineAccountingGolden pins the device-level accounting bits of
// all five engines under bench power, a completing harvester and a
// starving one. Nothing else pins them at this level: the fleet
// goldens see only aggregates.
func TestEngineAccountingGolden(t *testing.T) {
	m := modelFor(t, true)
	in := randInput(64, 12)
	for _, f := range factories(t) {
		for _, sup := range accountingSupplies {
			name := f.name + "/" + sup.name
			d := device.New(device.DefaultCosts(), sup.make(t))
			store, err := exec.NewModelStore(d, m)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := f.make(d, store, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var rep exec.Report
			if sup.name == "continuous" {
				if rep, err = exec.RunContinuous(d, eng); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				rep = exec.RunIntermittent(d, eng, &intermittent.Runner{MaxBoots: sup.maxBoots})
			}
			got := accountingRecord(rep)
			if want := wantAccounting[name]; got != want {
				t.Errorf("%s accounting moved:\n got %s\nwant %s", name, got, want)
			}
		}
	}
}
