package harvest

import (
	"math"
	"sort"
	"testing"
)

// opRand is SplitMix64: a tiny deterministic generator, so the op
// streams below — and the golden pinned on them — do not depend on the
// standard library's random sequences.
type opRand struct{ s uint64 }

func (r *opRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *opRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *opRand) intn(n int) int { return int(r.next() % uint64(n)) }

type opKind int

const (
	opDraw opKind = iota
	opRecharge
	opSkip
)

// drawOp is one supply operation of a generated stream.
type drawOp struct {
	kind    opKind
	nJ, dt  float64 // opDraw
	k       uint64  // opSkip
	wallSec float64 // opSkip
}

// nextOp picks the next operation for c, shaped like the charges a
// simulated MSP430 issues: mostly short ops at 16 MHz that draw more
// than the source harvests, some idle stretches that refill the store
// into the VMax clamp, large draws that brown it out, draws landing
// exactly on (or spanning whole) profile periods, and — after a brown
// out — a recharge, sometimes followed by a steady-cycle skip.
func nextOp(r *opRand, c *Capacitor, browned bool) drawOp {
	if browned {
		return drawOp{kind: opRecharge}
	}
	switch n := r.intn(400); {
	case n < 4:
		return drawOp{kind: opDraw, dt: 0.05 * r.float()} // idle: harvest only
	case n < 8:
		return drawOp{kind: opDraw, nJ: 2e4 + 2e5*r.float(), dt: 1e-3 * r.float()}
	case n < 9:
		return drawOp{kind: opRecharge}
	case n < 11:
		return drawOp{kind: opSkip, k: uint64(1 + r.intn(3)), wallSec: r.float()}
	case n < 18 && c.mode == modePeriodic:
		var dt float64
		switch r.intn(3) {
		case 0:
			dt = c.period - c.phase // land on the period edge
		case 1:
			dt = c.period
		default:
			dt = 3 * c.period
		}
		return drawOp{kind: opDraw, nJ: 10 * r.float(), dt: dt}
	}
	cycles := float64(1 + r.intn(4000))
	return drawOp{kind: opDraw, nJ: cycles * (0.5 + 1.5*r.float()), dt: cycles / 16e6}
}

// applyOp runs op on c, drawing through draw. It returns the op's
// success flag and, for a recharge, the off-time.
func applyOp(c *Capacitor, op drawOp, draw func(*Capacitor, float64, float64) bool) (bool, float64) {
	switch op.kind {
	case opRecharge:
		off, ok := c.Recharge()
		return ok, off
	case opSkip:
		c.SkipSteadyCycles(op.k, op.wallSec, c.CycleHarvestJ())
		return true, 0
	}
	return draw(c, op.nJ, op.dt), 0
}

// capState is the observable state of a capacitor as float bits.
type capState struct {
	energy, harvested, now, volt uint64
	tokOK                        bool
	tok                          CycleToken
}

func stateOf(c *Capacitor) capState {
	tok, ok := c.CycleToken()
	return capState{
		energy:    math.Float64bits(c.EnergyJ()),
		harvested: math.Float64bits(c.HarvestedJ()),
		now:       math.Float64bits(c.Now()),
		volt:      math.Float64bits(c.Voltage()),
		tokOK:     ok,
		tok:       tok,
	}
}

// fnvFold folds v into the FNV-1a hash h, byte by byte.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func (s capState) fold(h uint64) uint64 {
	for _, v := range []uint64{s.energy, s.harvested, s.now, s.volt, s.tok.EnergyBits, s.tok.PhaseBits} {
		h = fnvFold(h, v)
	}
	if s.tokOK {
		h = fnvFold(h, 1)
	}
	return h
}

type drawProfile struct {
	name string
	cfg  Config
	p    Profile
}

// drawProfiles enumerates every built-in profile kind, each with and
// without leakage. The hold-last trace ends on a non-zero plateau so
// its stream keeps recharging after the breakpoints run out.
func drawProfiles(t testing.TB) []drawProfile {
	t.Helper()
	repeat, err := NewTraceProfile([]float64{0, 1, 3, 4}, []float64{0, 4e-3, 4e-3, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := NewTraceProfile([]float64{0, 0.5, 1.5, 2}, []float64{1e-3, 6e-3, 6e-3, 2e-3}, false)
	if err != nil {
		t.Fatal(err)
	}
	base := []drawProfile{
		{"square", PaperConfig(), SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5}},
		{"sine", PaperConfig(), SineProfile{PeakWatts: 5e-3, Period: 0.1}},
		{"const", PaperConfig(), ConstantProfile{Watts: 3e-3}},
		{"trace-repeat", PaperConfig(), repeat},
		{"trace-hold", PaperConfig(), hold},
	}
	out := base
	for _, d := range base {
		d.name += "-leak"
		d.cfg.LeakageW = 0.4e-3
		out = append(out, d)
	}
	return out
}

// runStream drives a fresh capacitor through n generated ops and
// returns its final state and the FNV-1a hash of the state after every
// op (including each op's result and off-time).
func runStream(t testing.TB, d drawProfile, seed uint64, n int) (capState, uint64) {
	t.Helper()
	c, err := NewCapacitor(d.cfg, d.p)
	if err != nil {
		t.Fatal(err)
	}
	r := &opRand{s: seed}
	h := uint64(14695981039346656037)
	browned := false
	for i := 0; i < n; i++ {
		op := nextOp(r, c, browned)
		ok, off := applyOp(c, op, (*Capacitor).Draw)
		browned = op.kind == opDraw && !ok
		h = stateOf(c).fold(h)
		h = fnvFold(h, math.Float64bits(off))
		if ok {
			h = fnvFold(h, 1)
		}
	}
	return stateOf(c), h
}

// TestDrawSequenceGolden pins, as float bits, the final supply state
// and the per-op state hash of fixed draw/recharge/skip streams for
// every profile kind. The values were generated before Draw carried
// the harvest integral from one call to the next, so they pin the
// per-call arithmetic that change had to preserve bit for bit.
func TestDrawSequenceGolden(t *testing.T) {
	// energy, harvested, now, voltage, token energy, token phase, hash
	want := map[string][7]uint64{
		"square":            {0x3f44e8badbf11314, 0x3fe6c5b462ff83db, 0x406666a8451b0a5a, 0x400c943c3d9bb6d2, 0x3f44e8badbf11314, 0x3f61a2e7f6f4beeb, 0xceb6b2082a2e1b11},
		"sine":              {0x3f44d2c0b31db537, 0x3fe11c4fac6fe50e, 0x4062c8416d3280d1, 0x400c85334da38279, 0x3f44d2c0b31db537, 0x3f613165d3996fb0, 0x203b9370c28a4da},
		"const":             {0x3f3ea04824ec14c5, 0x3fc602ab761e5306, 0x4060d189ae6c9b92, 0x4008751a5542a34d, 0x3f3ea04824ec14c5, 0x0, 0xa1be5bd75880a0a9},
		"trace-repeat":      {0x3f44eb2da9883ee2, 0x403ad1cb195371cd, 0x40a36e03f935f3c8, 0x400c95e88e619bdf, 0x3f44eb2da9883ee2, 0x3f5eaf251c19428b, 0x37ebf0fb352af745},
		"trace-hold":        {0x3f3bd481acac6466, 0x3fc48d9aab934159, 0x406229914545faf2, 0x400750762504d2c5, 0x0, 0x0, 0xad5a5dcdeaf7a4c1},
		"square-leak":       {0x3f44fc16a61ee69e, 0x3fe5db0fbf1b1c44, 0x4066ad0c602c07d1, 0x400ca17407344c95, 0x3f44fc16a61ee69e, 0x3f5eaf251c193c0b, 0x6643f4fb850b67f6},
		"sine-leak":         {0x3f44eb9d77cdc5f5, 0x3fe075efa05ac8b1, 0x4062eea5f9c5a1a2, 0x400c9634f24d6d7e, 0x3f44eb9d77cdc5f5, 0x3f5eaf251c193b4b, 0x5945f12fa00e006e},
		"const-leak":        {0x3f3d994dc8e9f539, 0x3fc86a380ec84e54, 0x40614325735be855, 0x40080b33de97caab, 0x3f3d994dc8e9f539, 0x0, 0xdd8771898c0bd11a},
		"trace-repeat-leak": {0x3f4531b61f4abbea, 0x403a1d61ac756150, 0x40a36e03bfe85fc3, 0x400cc5f15ef98ee2, 0x3f4531b61f4abbea, 0x3f5785729b281664, 0x982d1d43fbd1098d},
		"trace-hold-leak":   {0x3f3ad79863c48bef, 0x3fc8c5df36e021a5, 0x406331c9beb49e7c, 0x4006e591575bd3ff, 0x0, 0x0, 0x6523577a404459b7},
	}
	for _, d := range drawProfiles(t) {
		s, h := runStream(t, d, 0x5eed, 20000)
		got := [7]uint64{s.energy, s.harvested, s.now, s.volt, s.tok.EnergyBits, s.tok.PhaseBits, h}
		if got != want[d.name] {
			t.Errorf("%s: final state %#x, want %#x", d.name, got, want[d.name])
		}
	}
}

// oracleDraw is Draw as it was before the harvest integral was carried
// from one call to the next: EnergyBetween evaluated on every call, the
// phase always wrapped with math.Mod, and both thresholds recomputed as
// ½CV² per call. TestDrawMatchesPerCallOracle drives a twin capacitor
// through it.
func oracleDraw(c *Capacitor, nJ, dt float64) bool {
	if dt > 0 {
		var gross float64
		ap, analytic := c.profile.(Analytic)
		switch {
		case c.mode == modePeriodic:
			gross = ap.EnergyBetween(c.phase, c.phase+dt)
			c.phase = math.Mod(c.phase+dt, c.period)
		case c.mode == modeConstant:
			gross = ap.EnergyBetween(0, dt)
		case analytic:
			gross = ap.EnergyBetween(c.nowSec, c.nowSec+dt)
		default:
			gross = c.profile.PowerAt(c.nowSec) * dt
		}
		c.energyJ += gross - c.cfg.LeakageW*dt
		if c.energyJ < 0 {
			c.energyJ = 0
		}
		if vmax := 0.5 * c.cfg.CapacitanceF * c.cfg.VMax * c.cfg.VMax; c.energyJ > vmax {
			c.energyJ = vmax
		}
		c.cycleHarvestJ += gross
	}
	c.nowSec += dt
	need := nJ * 1e-9
	floor := 0.5 * c.cfg.CapacitanceF * c.cfg.VOff * c.cfg.VOff
	if c.energyJ-need < floor {
		c.energyJ = floor
		return false
	}
	c.energyJ -= need
	return true
}

// doubledSquare embeds a built-in profile but overrides its energy, so
// the capacitor must integrate it through EnergyBetween, not through
// the embedded cumEnergy.
type doubledSquare struct{ SquareProfile }

func (p doubledSquare) PowerAt(t float64) float64 { return 2 * p.SquareProfile.PowerAt(t) }
func (p doubledSquare) EnergyBetween(t0, t1 float64) float64 {
	return 2 * p.SquareProfile.EnergyBetween(t0, t1)
}
func (p doubledSquare) MeanPower() float64 { return 2 * p.SquareProfile.MeanPower() }

// wobbleProfile has no closed form: Draw integrates it one
// power-at-window-start step at a time and Recharge falls back to Euler.
type wobbleProfile struct{}

func (wobbleProfile) PowerAt(t float64) float64 { return 3e-3 * (1 + 0.5*math.Sin(7*t)) }

// TestDrawMatchesPerCallOracle is the bit-identity property test for
// the carried integral: random op streams — short and idle draws,
// brown-outs, draws landing on period edges, recharges and steady-cycle
// skips — drive a capacitor and a twin drawing through oracleDraw, and
// after every op both must agree to the bit.
func TestDrawMatchesPerCallOracle(t *testing.T) {
	leaky := PaperConfig()
	leaky.LeakageW = 0.4e-3
	custom := doubledSquare{SquareProfile{PeakWatts: 2e-3, Period: 0.1, Duty: 0.3}}
	cases := append(drawProfiles(t),
		drawProfile{"custom-analytic", PaperConfig(), custom},
		drawProfile{"custom-analytic-leak", leaky, custom},
		drawProfile{"plain", PaperConfig(), wobbleProfile{}},
		drawProfile{"plain-leak", leaky, wobbleProfile{}})
	for _, d := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			c, err := NewCapacitor(d.cfg, d.p)
			if err != nil {
				t.Fatal(err)
			}
			twin, _ := NewCapacitor(d.cfg, d.p)
			r := &opRand{s: seed}
			browned := false
			for i := 0; i < 5000; i++ {
				op := nextOp(r, c, browned)
				ok, off := applyOp(c, op, (*Capacitor).Draw)
				tok, toff := applyOp(twin, op, oracleDraw)
				if ok != tok || math.Float64bits(off) != math.Float64bits(toff) {
					t.Fatalf("%s seed %d op %d %+v: result (%v, %v), oracle (%v, %v)", d.name, seed, i, op, ok, off, tok, toff)
				}
				if got, want := stateOf(c), stateOf(twin); got != want {
					t.Fatalf("%s seed %d op %d %+v: state %+v, oracle %+v", d.name, seed, i, op, got, want)
				}
				browned = op.kind == opDraw && !ok
			}
		}
	}
}

// TestProfileArithmeticMatchesSeedForm checks the two profile-side
// rewrites against the forms they replaced, on ordinary and edge
// inputs: the square wave's branches against math.Min/math.Max, and
// the trace's single-search localCum against the one that searched
// again inside localPower.
func TestProfileArithmeticMatchesSeedForm(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	r := &opRand{s: 7}
	duties := []float64{0, math.Copysign(0, -1), -0.5, 0.25, 0.5, 1, 1.5, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, duty := range duties {
		p := SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: duty}
		if want := math.Min(1, math.Max(0, duty)); !same(p.duty(), want) {
			t.Errorf("duty(%v) = %v, want %v", duty, p.duty(), want)
		}
		ts := []float64{0, 0.05, 0.1, 0.3, 1e9, math.Inf(1)}
		for i := 0; i < 2000; i++ {
			ts = append(ts, 10*r.float())
		}
		for _, tt := range ts {
			d := p.duty()
			n := math.Floor(tt / p.Period)
			want := p.PeakWatts * (n*d*p.Period + math.Min(tt-n*p.Period, d*p.Period))
			if got := p.cumEnergy(tt); !same(got, want) {
				t.Fatalf("duty %v: cumEnergy(%v) = %v, want %v", duty, tt, got, want)
			}
		}
	}
	for _, repeat := range []bool{false, true} {
		p := mustTrace(t, repeat)
		rs := append([]float64{}, p.times...)
		for i := 0; i < 2000; i++ {
			rs = append(rs, p.Duration()*r.float())
		}
		for _, x := range rs {
			var want float64
			if i := sort.SearchFloat64s(p.times, x); i < len(p.times) && p.times[i] == x {
				want = p.cum[i]
			} else {
				want = p.cum[i-1] + 0.5*(p.watts[i-1]+p.localPower(x))*(x-p.times[i-1])
			}
			if got := p.localCum(x); !same(got, want) {
				t.Fatalf("localCum(%v) = %v, want %v", x, got, want)
			}
		}
	}
}

// TestDrawZeroAlloc keeps the per-op supply charge allocation-free for
// every built-in profile kind: batched, and settled by the Voltage read
// that follows it.
func TestDrawZeroAlloc(t *testing.T) {
	for _, d := range drawProfiles(t) {
		c, err := NewCapacitor(d.cfg, d.p)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(1000, func() { c.Draw(300, 5e-5) }); a != 0 {
			t.Errorf("%s: Draw allocates %v times per call", d.name, a)
		}
		if c.pendOps == 0 {
			t.Errorf("%s: unobserved draws were not batched", d.name)
		}
		if a := testing.AllocsPerRun(1000, func() { c.Draw(300, 5e-5); c.Voltage() }); a != 0 {
			t.Errorf("%s: observed Draw allocates %v times per call", d.name, a)
		}
	}
}

// lazyBoundJ is the stored-energy (and harvest meter) tolerance of
// TestLazyDrawMatchesPerOp: an unobserved batch sums E and the meter
// in a different order from the per-op step, so the two may part by a
// few ulps per draw since the last recharge — orders of magnitude
// below this picojoule, which is itself ~3e-9 of the paper's usable
// 0.38 mJ charge.
const lazyBoundJ = 1e-12

// TestLazyDrawMatchesPerOp is the property test for lazy settlement:
// random streams that nobody observes op by op drive a capacitor and a
// twin drawing through oracleDraw, the per-op step. The streams add,
// to nextOp's mix of short draws, idle stretches into the VMax clamp,
// brown-outs and period-edge and period-spanning draws, zero-dt draws,
// a Voltage read every 61 ops (a FLEX-like monitor) and, at states the
// two share bit for bit, a draw of exactly the energy left above VOff;
// recharges follow brown-outs only, as in the intermittent runner.
// Every draw must succeed or brown out on both, the clock and phase
// must agree to the bit after every op, and at every read the stored
// energy and harvest meter must agree within lazyBoundJ.
func TestLazyDrawMatchesPerOp(t *testing.T) {
	var batched, draws int
	var worst float64
	for _, d := range drawProfiles(t) {
		for seed := uint64(1); seed <= 6; seed++ {
			c, err := NewCapacitor(d.cfg, d.p)
			if err != nil {
				t.Fatal(err)
			}
			twin, _ := NewCapacitor(d.cfg, d.p)
			r := &opRand{s: seed}
			browned := false
			sinceRecharge := 0 // draws since the last recharge
			for i := 0; i < 20000; i++ {
				op := nextOp(r, c, browned)
				if op.kind == opRecharge && !browned {
					// Recharges follow brown-outs, as in the runner:
					// from anywhere else they would start from the
					// two stores' differently rounded energies.
					op = drawOp{kind: opDraw, dt: 0.05 * r.float()}
				}
				if op.kind == opDraw {
					switch n := r.intn(40); {
					case n == 0:
						op.dt = 0
					case n < 20 && sinceRecharge == 1:
						// The batch is open with nothing pending, at the
						// twin's very state: drain it to VOff exactly.
						op = drawOp{kind: opDraw, nJ: drainNJ(twin.energyJ - twin.floorJ)}
					}
				}
				pending := c.pendOps
				ok, off := applyOp(c, op, (*Capacitor).Draw)
				tok, toff := applyOp(twin, op, oracleDraw)
				if ok != tok || math.Float64bits(off) != math.Float64bits(toff) {
					t.Fatalf("%s seed %d op %d %+v: result (%v, %v), per-op (%v, %v)", d.name, seed, i, op, ok, off, tok, toff)
				}
				if c.Now() != twin.Now() || math.Float64bits(c.phase) != math.Float64bits(twin.phase) {
					t.Fatalf("%s seed %d op %d %+v: now/phase %v/%v, per-op %v/%v", d.name, seed, i, op, c.Now(), c.phase, twin.Now(), twin.phase)
				}
				switch op.kind {
				case opDraw:
					draws++
					if c.pendOps == pending+1 {
						batched++
					}
					sinceRecharge++
				case opRecharge:
					sinceRecharge = 0
				}
				browned = op.kind == opDraw && !ok
				if i%61 == 0 || i == 19999 {
					c.Voltage()
					worst = math.Max(worst, lazyGap(t, d.name, c, twin))
				}
			}
		}
	}
	if batched < draws/2 {
		t.Errorf("only %d of %d draws were batched", batched, draws)
	}
	t.Logf("%d of %d draws batched; worst energy/meter gap %.3g J", batched, draws, worst)
}

// drainNJ returns nJ such that the draw's need, nJ·1e-9, is exactly
// roomJ when some float64 nJ makes it so, and the nearest otherwise.
func drainNJ(roomJ float64) float64 {
	nJ := roomJ / 1e-9
	lo, hi := nJ, nJ
	for i := 0; i < 4; i++ {
		if lo*1e-9 == roomJ {
			return lo
		}
		if hi*1e-9 == roomJ {
			return hi
		}
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
	}
	return nJ
}

// lazyGap checks that c and its per-op twin agree at an observation:
// token phase bits exactly, stored energy and harvest meter within
// lazyBoundJ. It returns the larger of the two gaps.
func lazyGap(t *testing.T, name string, c, twin *Capacitor) float64 {
	t.Helper()
	tok, ok := c.CycleToken()
	ttok, tok2 := twin.CycleToken()
	if ok != tok2 || tok.PhaseBits != ttok.PhaseBits {
		t.Fatalf("%s: token %+v (%v), per-op %+v (%v)", name, tok, ok, ttok, tok2)
	}
	gap := math.Max(math.Abs(c.EnergyJ()-twin.EnergyJ()), math.Abs(c.HarvestedJ()-twin.HarvestedJ()))
	if !(gap <= lazyBoundJ) {
		t.Fatalf("%s: energy %v / meter %v, per-op %v / %v", name, c.EnergyJ(), c.HarvestedJ(), twin.EnergyJ(), twin.HarvestedJ())
	}
	return gap
}
