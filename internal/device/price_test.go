package device

import (
	"math"
	"math/rand"
	"testing"

	"ehdl/internal/fixed"
)

// recordSupply records the last draw and always delivers.
type recordSupply struct {
	nJ, dt float64
	draws  int
}

func (s *recordSupply) Draw(nJ, dt float64) bool {
	s.nJ, s.dt = nJ, dt
	s.draws++
	return true
}
func (s *recordSupply) Voltage() float64          { return 3.0 }
func (s *recordSupply) Recharge() (float64, bool) { return 0, true }

// helperFormulas restates, helper by helper, the per-call pricing
// expressions the charge helpers evaluated before prices were tabled.
// They are the oracle the tabled and fallback prices must equal bit
// for bit.
var helperFormulas = []struct {
	kind    opKind
	cat     Category
	charge  func(d *Device, n int)
	formula func(c Costs, n int) (uint64, float64)
}{
	{opCPU, CatCPU, func(d *Device, n int) { d.CPUOps(n) }, func(c Costs, n int) (uint64, float64) {
		cy := uint64(n) * c.CPUOpCycles
		return cy, float64(cy) * c.CPUCyclenJ
	}},
	{opCPUMAC, CatCPU, func(d *Device, n int) { d.CPUMACs(n) }, func(c Costs, n int) (uint64, float64) {
		cy := uint64(n) * c.CPUMACCycles
		return cy, float64(cy) * c.CPUCyclenJ
	}},
	{opSRAM, CatSRAM, func(d *Device, n int) { d.SRAMAccess(n) }, func(c Costs, n int) (uint64, float64) {
		cy := uint64(n) * c.SRAMWordCycles
		return cy, float64(cy)*c.CPUCyclenJ + float64(n)*c.SRAMWordnJ
	}},
	{opFRAMRead, CatRestore, func(d *Device, n int) { d.FRAMRead(n, CatRestore) }, func(c Costs, n int) (uint64, float64) {
		cy := uint64(n) * c.FRAMReadWordCycles
		return cy, float64(cy)*c.CPUCyclenJ + float64(n)*c.FRAMReadWordnJ
	}},
	{opFRAMWrite, CatCheckpoint, func(d *Device, n int) { d.FRAMWrite(n, CatCheckpoint) }, func(c Costs, n int) (uint64, float64) {
		cy := uint64(n) * c.FRAMWriteWordCycles
		return cy, float64(cy)*c.CPUCyclenJ + float64(n)*c.FRAMWriteWordnJ
	}},
	{opDMA, CatDMA, func(d *Device, n int) { d.DMA(n) }, func(c Costs, n int) (uint64, float64) {
		return c.DMASetupCycles + uint64(n)*c.DMAWordCycles,
			float64(c.DMASetupCycles)*c.CPUCyclenJ +
				float64(uint64(n)*c.DMAWordCycles)*c.LPMCyclenJ +
				float64(n)*c.DMAWordnJ
	}},
	{opDMAToFRAM, CatFRAMWrite, func(d *Device, n int) { d.DMAToFRAM(n, CatFRAMWrite) }, func(c Costs, n int) (uint64, float64) {
		return c.DMASetupCycles + uint64(n)*c.DMAWordCycles,
			float64(c.DMASetupCycles)*c.CPUCyclenJ +
				float64(uint64(n)*c.DMAWordCycles)*c.LPMCyclenJ +
				float64(n)*(c.DMAWordnJ+c.FRAMWriteWordnJ)
	}},
	{opDMAFromFRAM, CatFRAMRead, func(d *Device, n int) { d.DMAFromFRAM(n, CatFRAMRead) }, func(c Costs, n int) (uint64, float64) {
		return c.DMASetupCycles + uint64(n)*c.DMAWordCycles,
			float64(c.DMASetupCycles)*c.CPUCyclenJ +
				float64(uint64(n)*c.DMAWordCycles)*c.LPMCyclenJ +
				float64(n)*(c.DMAWordnJ+c.FRAMReadWordnJ)
	}},
	{opLEAMAC, CatLEA, func(d *Device, n int) { d.LEAMAC(n) }, func(c Costs, n int) (uint64, float64) {
		cy := c.LEASetupCycles + uint64(n)*c.LEAMACCyclesPerElem
		return cy, float64(cy) * (c.LEACyclenJ + c.LPMCyclenJ)
	}},
	{opLEAAdd, CatLEA, func(d *Device, n int) { d.LEAAdd(n) }, func(c Costs, n int) (uint64, float64) {
		cy := c.LEASetupCycles + uint64(n)*c.LEAAddCyclesPerElem
		return cy, float64(cy) * (c.LEACyclenJ + c.LPMCyclenJ)
	}},
	{opLEACMul, CatLEA, func(d *Device, n int) { d.LEACMul(n) }, func(c Costs, n int) (uint64, float64) {
		cy := c.LEASetupCycles + uint64(n)*c.LEACMulCyclesPerElem
		return cy, float64(cy) * (c.LEACyclenJ + c.LPMCyclenJ)
	}},
	{opLEAFFT, CatLEA, func(d *Device, n int) { d.LEAFFT(n) }, func(c Costs, n int) (uint64, float64) {
		butterflies := uint64(0)
		if n > 1 {
			log2 := uint64(0)
			for v := n; v > 1; v >>= 1 {
				log2++
			}
			butterflies = uint64(n/2) * log2
		}
		cy := c.LEASetupCycles + butterflies*c.LEAFFTButterflyCycles
		return cy, float64(cy) * (c.LEACyclenJ + c.LPMCyclenJ)
	}},
	// MonitorSample charges one sample, the constant pair below; the
	// table prices n samples as n times that (exact at n = 1).
	{opMonitor, CatMonitor, func(d *Device, _ int) { d.MonitorSample() }, func(c Costs, n int) (uint64, float64) {
		return uint64(n) * c.ADCSampleCycles, float64(n) * c.ADCSamplenJ
	}},
}

// oddCosts is a cost table with no round numbers, so a pricing
// expression evaluated in a different order rounds differently.
func oddCosts() Costs {
	c := DefaultCosts()
	c.ClockHz = 24e6
	c.CPUCyclenJ, c.LPMCyclenJ, c.LEACyclenJ = 1.37, 0.173, 0.613
	c.FRAMReadWordnJ, c.FRAMWriteWordnJ = 4.71, 12.3
	c.SRAMWordnJ, c.DMAWordnJ = 0.37, 1.91
	c.FRAMReadWordCycles, c.FRAMWriteWordCycles, c.SRAMWordCycles = 3, 5, 1
	c.DMASetupCycles, c.DMAWordCycles = 31, 3
	c.LEASetupCycles, c.LEAMACCyclesPerElem, c.LEACMulCyclesPerElem = 47, 2, 3
	c.LEAAddCyclesPerElem, c.LEAFFTButterflyCycles = 2, 5
	c.CPUMACCycles, c.CPUOpCycles = 7, 2
	c.ADCSampleCycles, c.ADCSamplenJ = 33, 41.3
	return c
}

// TestPricesMatchFormula checks, for every op kind and every word
// count the table holds and past it into the fallback, that the price
// equals the formula, and that the helper draws exactly that energy
// and duration from the supply and adds exactly its cycles and energy
// to the boot — bit for bit, on the shared default table and on a
// private one.
func TestPricesMatchFormula(t *testing.T) {
	seen := map[opKind]bool{}
	for _, h := range helperFormulas {
		seen[h.kind] = true
	}
	if len(seen) != int(numOpKinds) || len(helperFormulas) != int(numOpKinds) {
		t.Fatalf("%d formulas for %d distinct kinds, want one per each of %d kinds",
			len(helperFormulas), len(seen), numOpKinds)
	}
	bits := math.Float64bits
	for _, costs := range []Costs{DefaultCosts(), oddCosts()} {
		sup := &recordSupply{}
		d := New(costs, sup)
		for _, h := range helperFormulas {
			for n := 0; n < priceTableN+8; n++ {
				wantCy, wantNJ := h.formula(costs, n)
				wantDt := float64(wantCy) / costs.ClockHz
				d.Reboot() // zero the boot accumulators
				sup.draws = 0
				if p := d.priced(h.kind, n); p.cycles != wantCy || bits(p.nJ) != bits(wantNJ) || bits(p.dt) != bits(wantDt) {
					t.Fatalf("kind %d n=%d (table %v): priced {%d, %x, %x}, formula {%d, %x, %x}",
						h.kind, n, n < priceTableN, p.cycles, bits(p.nJ), bits(p.dt),
						wantCy, bits(wantNJ), bits(wantDt))
				}
				if h.kind == opMonitor && n != 1 {
					continue // the helper takes one sample
				}
				h.charge(d, n)
				bs := d.BootStats()
				if sup.draws != 1 || bits(sup.nJ) != bits(wantNJ) || bits(sup.dt) != bits(wantDt) {
					t.Fatalf("kind %d n=%d: drew %d×(%x nJ, %x s), formula (%x nJ, %x s)",
						h.kind, n, sup.draws, bits(sup.nJ), bits(sup.dt), bits(wantNJ), bits(wantDt))
				}
				if bs.Cycles != wantCy || bits(bs.Energy[h.cat]) != bits(wantNJ) {
					t.Fatalf("kind %d n=%d: boot accumulated %d cycles, %v nJ to %v; want %d, %v",
						h.kind, n, bs.Cycles, bs.Energy[h.cat], h.cat, wantCy, wantNJ)
				}
			}
		}
	}
}

// nvWrite is one committed NV write: a control word (buf false) or a
// Q15 buffer element at pos.
type nvWrite struct {
	buf bool
	pos int
	val uint64
}

const nvTestBufLen = 64

func randomNVLog(rng *rand.Rand, n int) []nvWrite {
	log := make([]nvWrite, n)
	for i := range log {
		if rng.Intn(2) == 0 {
			log[i] = nvWrite{val: rng.Uint64()}
		} else {
			log[i] = nvWrite{buf: true, pos: rng.Intn(nvTestBufLen), val: uint64(uint16(rng.Intn(1 << 16)))}
		}
	}
	return log
}

// applyNVLog commits log on d through the NV types.
func applyNVLog(d *Device, w *NVWord, b *NVQ15, log []nvWrite) {
	for _, e := range log {
		if e.buf {
			b.StoreOne(d, CatFRAMWrite, e.pos, fixed.Q15(uint16(e.val)))
		} else {
			w.Write(d, CatCheckpoint, e.val)
		}
	}
}

func newNVRig(t *testing.T) (*Device, *NVWord, *NVQ15) {
	t.Helper()
	d := newTestDevice()
	b, err := NewNVQ15(d, nvTestBufLen)
	if err != nil {
		t.Fatal(err)
	}
	return d, &NVWord{}, b
}

// nvSignature is the write-log signature a fresh boot ends with after
// committing log.
func nvSignature(t *testing.T, log []nvWrite) uint64 {
	t.Helper()
	d, w, b := newNVRig(t)
	applyNVLog(d, w, b, log)
	if got := d.BootStats().NVWrites; got != uint64(len(log)) {
		t.Fatalf("%d NV writes logged, want %d", got, len(log))
	}
	return d.BootStats().NVHash
}

// TestNVSignatureEqualLogs: equal write logs end with equal signatures,
// and a bulk Store folds exactly like the same words stored one by one.
func TestNVSignatureEqualLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		log := randomNVLog(rng, 1+rng.Intn(40))
		again := append([]nvWrite(nil), log...)
		if a, b := nvSignature(t, log), nvSignature(t, again); a != b {
			t.Fatalf("trial %d: equal logs signed %x and %x", trial, a, b)
		}
	}
	vals := make([]fixed.Q15, 2*commitChunkWords+5)
	var one []nvWrite
	for i := range vals {
		vals[i] = fixed.Q15(rng.Intn(1 << 16))
		one = append(one, nvWrite{buf: true, pos: 3 + i, val: uint64(uint16(vals[i]))})
	}
	d := newTestDevice()
	b, err := NewNVQ15(d, 3+len(vals))
	if err != nil {
		t.Fatal(err)
	}
	b.Store(d, CatFRAMWrite, 3, vals)
	d2 := newTestDevice()
	b2, err := NewNVQ15(d2, 3+len(vals))
	if err != nil {
		t.Fatal(err)
	}
	applyNVLog(d2, &NVWord{}, b2, one)
	if d.BootStats().NVHash != d2.BootStats().NVHash {
		t.Fatal("bulk Store and per-element StoreOne of the same words sign differently")
	}
}

// TestNVSignatureDetectsSingleChange: changing any one committed value,
// or the position of any one buffer write, changes the signature.
func TestNVSignatureDetectsSingleChange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		log := randomNVLog(rng, 1+rng.Intn(30))
		base := nvSignature(t, log)
		for i, e := range log {
			changed := append([]nvWrite(nil), log...)
			changed[i].val ^= 1 << uint(rng.Intn(16))
			if nvSignature(t, changed) == base {
				t.Fatalf("trial %d: changing the value of write %d (%+v) kept the signature", trial, i, e)
			}
			if !e.buf {
				continue
			}
			changed[i] = e
			changed[i].pos = (e.pos + 1 + rng.Intn(nvTestBufLen-1)) % nvTestBufLen
			if nvSignature(t, changed) == base {
				t.Fatalf("trial %d: moving write %d (%+v) to position %d kept the signature",
					trial, i, e, changed[i].pos)
			}
		}
	}
}

// TestNVHashAtPrevLen: a boot that writes at least as many words as
// the previous one samples its running signature at exactly the
// previous boot's length, which equals the signature of its own log
// truncated there — also when the crossing falls inside a bulk store.
func TestNVHashAtPrevLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, prevLen := range []int{0, 1, 7, 31, 40} {
		d, w, b := newNVRig(t)
		applyNVLog(d, w, b, randomNVLog(rng, prevLen))
		if !d.Reboot() {
			t.Fatal("reboot failed")
		}
		log := randomNVLog(rng, prevLen+rng.Intn(10))
		applyNVLog(d, w, b, log)
		// A bulk store past the end, crossing nothing new.
		b.Store(d, CatFRAMWrite, 0, make([]fixed.Q15, 5))
		if got, want := d.BootStats().NVHashAtPrevLen, nvSignature(t, log[:prevLen]); got != want {
			t.Fatalf("prevLen %d: NVHashAtPrevLen %x, truncated log signs %x", prevLen, got, want)
		}
	}
	// The crossing inside a bulk store.
	d, w, b := newNVRig(t)
	applyNVLog(d, w, b, randomNVLog(rng, 10))
	if !d.Reboot() {
		t.Fatal("reboot failed")
	}
	vals := make([]fixed.Q15, 20)
	var log []nvWrite
	for i := range vals {
		vals[i] = fixed.Q15(rng.Intn(1 << 16))
		log = append(log, nvWrite{buf: true, pos: 4 + i, val: uint64(uint16(vals[i]))})
	}
	b.Store(d, CatFRAMWrite, 4, vals)
	if got, want := d.BootStats().NVHashAtPrevLen, nvSignature(t, log[:10]); got != want {
		t.Fatalf("mid-store crossing: NVHashAtPrevLen %x, truncated log signs %x", got, want)
	}
}
