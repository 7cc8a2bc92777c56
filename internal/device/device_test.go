package device

import (
	"math"
	"testing"

	"ehdl/internal/fixed"
)

// budgetSupply delivers a fixed energy budget and then browns out; it
// lets tests inject power failures at exact energy offsets.
type budgetSupply struct {
	remaining float64 // nJ
}

func (s *budgetSupply) Draw(nJ, dt float64) bool {
	if s.remaining < nJ {
		s.remaining = 0
		return false
	}
	s.remaining -= nJ
	return true
}
func (s *budgetSupply) Voltage() float64          { return 3.0 }
func (s *budgetSupply) Recharge() (float64, bool) { return 1e-3, true }

func newTestDevice() *Device {
	return New(DefaultCosts(), Continuous{})
}

func TestConsumeAccountsCyclesAndEnergy(t *testing.T) {
	d := newTestDevice()
	d.CPUOps(100)
	s := d.Stats()
	if s.ActiveCycles != 100 {
		t.Errorf("cycles = %d, want 100", s.ActiveCycles)
	}
	if math.Abs(s.Energy[CatCPU]-180) > 1e-12 {
		t.Errorf("CPU energy = %v, want 180", s.Energy[CatCPU])
	}
	wantSec := 100.0 / d.Costs().ClockHz
	if math.Abs(s.ActiveSeconds-wantSec) > 1e-15 {
		t.Errorf("seconds = %v, want %v", s.ActiveSeconds, wantSec)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Sum of category meters must equal the total the supply delivered.
	supply := &budgetSupply{remaining: 1e9}
	d := New(DefaultCosts(), supply)
	d.CPUOps(100)
	d.CPUMACs(50)
	d.LEAFFT(64)
	d.DMA(128)
	d.FRAMWrite(32, CatCheckpoint)
	d.FRAMRead(32, CatRestore)
	d.SRAMAccess(16)
	d.MonitorSample()
	s := d.Stats()
	delivered := 1e9 - supply.remaining
	if math.Abs(s.TotalEnergynJ-delivered) > 1e-6 {
		t.Errorf("meter total %v nJ, supply delivered %v nJ", s.TotalEnergynJ, delivered)
	}
}

func TestPowerFailurePanics(t *testing.T) {
	d := New(DefaultCosts(), &budgetSupply{remaining: 10})
	defer func() {
		r := recover()
		if _, ok := r.(PowerFailure); !ok {
			t.Errorf("expected PowerFailure panic, got %v", r)
		}
	}()
	d.CPUOps(1000) // far beyond 10 nJ
}

func TestRebootWipesSRAMOnly(t *testing.T) {
	d := newTestDevice()
	vol := MustAllocQ15(d, 4)
	nv, err := NewNVQ15(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	vol[0] = 7
	nv.Store(d, CatFRAMWrite, 0, []fixed.Q15{1, 2, 3, 4})
	if !d.Reboot() {
		t.Fatal("reboot failed under continuous supply")
	}
	if vol[0] != 0 {
		t.Error("SRAM survived reboot")
	}
	dst := make([]fixed.Q15, 4)
	nv.Load(d, CatFRAMRead, 0, dst)
	if dst[2] != 3 {
		t.Error("FRAM lost data across reboot")
	}
	if d.Stats().Boots != 1 {
		t.Errorf("boots = %d, want 1", d.Stats().Boots)
	}
}

func TestSRAMCapacityEnforced(t *testing.T) {
	d := newTestDevice()
	if _, err := AllocQ15(d, 3000); err != nil { // 6000 B fits in 8 KB
		t.Fatalf("first alloc should fit: %v", err)
	}
	if _, err := AllocQ15(d, 2000); err == nil { // 4000 B more does not
		t.Fatal("expected SRAM overflow error")
	}
	if got := d.SRAMUsed(); got != 6000 {
		t.Errorf("SRAMUsed = %d, want 6000", got)
	}
}

func TestFRAMCapacityEnforced(t *testing.T) {
	d := newTestDevice()
	if err := d.ReserveFRAM(200 * 1024); err != nil {
		t.Fatalf("200 KB should fit: %v", err)
	}
	if err := d.ReserveFRAM(100 * 1024); err == nil {
		t.Fatal("expected FRAM overflow error")
	}
}

func TestAllocComplexAndQ31Sizes(t *testing.T) {
	d := newTestDevice()
	if _, err := AllocComplex(d, 10); err != nil {
		t.Fatal(err)
	}
	if d.SRAMUsed() != 40 {
		t.Errorf("complex alloc used %d B, want 40", d.SRAMUsed())
	}
	if _, err := AllocQ31(d, 10); err != nil {
		t.Fatal(err)
	}
	if d.SRAMUsed() != 80 {
		t.Errorf("after Q31 alloc used %d B, want 80", d.SRAMUsed())
	}
}

func TestNVWordAtomicAcrossFailure(t *testing.T) {
	// A write that cannot be paid must not change the word.
	d := New(DefaultCosts(), &budgetSupply{remaining: 0.5})
	var w NVWord
	func() {
		defer func() { recover() }()
		w.Write(d, CatCheckpoint, 42)
	}()
	if w.Peek() != 0 {
		t.Errorf("unpaid write mutated the word: %d", w.Peek())
	}
}

func TestNVQ15StoreLoadRoundTrip(t *testing.T) {
	d := newTestDevice()
	b, err := NewNVQ15(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]fixed.Q15, 100)
	for i := range src {
		src[i] = fixed.Q15(i)
	}
	b.Store(d, CatFRAMWrite, 0, src)
	dst := make([]fixed.Q15, 100)
	b.Load(d, CatFRAMRead, 0, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestNVQ15PartialStoreOnFailure(t *testing.T) {
	// With only enough energy for the first chunk, a bulk store must
	// leave a prefix written and the rest untouched — the torn-write
	// hazard double buffering guards against.
	costs := DefaultCosts()
	chunkEnergy := float64(commitChunkWords)*costs.FRAMWriteWordnJ +
		float64(uint64(commitChunkWords)*costs.FRAMWriteWordCycles)*costs.CPUCyclenJ
	d := New(costs, &budgetSupply{remaining: chunkEnergy * 1.5})
	b, err := NewNVQ15(d, 2*commitChunkWords)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]fixed.Q15, 2*commitChunkWords)
	for i := range src {
		src[i] = 9
	}
	func() {
		defer func() {
			if _, ok := recover().(PowerFailure); !ok {
				t.Error("expected PowerFailure")
			}
		}()
		b.Store(d, CatFRAMWrite, 0, src)
	}()
	if b.Raw()[0] != 9 {
		t.Error("first chunk should have been written")
	}
	if b.Raw()[commitChunkWords] != 0 {
		t.Error("second chunk should NOT have been written")
	}
}

func TestNVDoubleBufferAtomicCommit(t *testing.T) {
	d := newTestDevice()
	db, err := NewNVDoubleQ15(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]fixed.Q15, 8)
	for i := range v1 {
		v1[i] = 1
	}
	db.Commit(d, CatCheckpoint, v1)
	if db.PeekSeq() != 1 {
		t.Errorf("seq = %d, want 1", db.PeekSeq())
	}
	got := make([]fixed.Q15, 8)
	db.Load(d, CatRestore, got)
	if got[3] != 1 {
		t.Error("committed data not loaded")
	}
}

func TestNVDoubleBufferFailureKeepsOldData(t *testing.T) {
	// Inject failures at every possible energy budget within a commit;
	// the loaded data must always be the old committed value or the
	// new one — never a mixture.
	costs := DefaultCosts()
	old := make([]fixed.Q15, 64)
	next := make([]fixed.Q15, 64)
	for i := range old {
		old[i] = 1
		next[i] = 2
	}
	// Measure the full commit cost first.
	probe := New(costs, Continuous{})
	db0, err := NewNVDoubleQ15(probe, 64)
	if err != nil {
		t.Fatal(err)
	}
	before := probe.Stats().TotalEnergynJ
	db0.Commit(probe, CatCheckpoint, old)
	commitCost := probe.Stats().TotalEnergynJ - before

	steps := 24
	for i := 0; i <= steps; i++ {
		budget := commitCost * float64(i) / float64(steps) * 0.999
		d := New(costs, Continuous{})
		db, err := NewNVDoubleQ15(d, 64)
		if err != nil {
			t.Fatal(err)
		}
		db.Commit(d, CatCheckpoint, old) // seed with old data, full power
		// Switch to a constrained supply for the second commit.
		d2 := New(costs, &budgetSupply{remaining: budget})
		interrupted := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(PowerFailure); !ok {
						panic(r)
					}
					interrupted = true
				}
			}()
			db.Commit(d2, CatCheckpoint, next)
		}()
		got := make([]fixed.Q15, 64)
		db.Load(d, CatRestore, got)
		want := fixed.Q15(2)
		if interrupted {
			want = 1 // must still read the old committed bank
		}
		for j := range got {
			if got[j] != want {
				t.Fatalf("budget %.0f nJ (interrupted=%v): element %d = %d, want %d — torn commit",
					budget, interrupted, j, got[j], want)
			}
		}
	}
}

func TestChargeHelpersMeterCategories(t *testing.T) {
	d := newTestDevice()
	d.LEAMAC(100)
	d.LEAAdd(100)
	d.LEACMul(100)
	if d.Stats().Energy[CatLEA] == 0 {
		t.Error("LEA meter empty after LEA ops")
	}
	d.DMAToFRAM(10, CatCheckpoint)
	if d.Stats().Energy[CatCheckpoint] == 0 {
		t.Error("checkpoint meter empty after DMAToFRAM")
	}
	d.DMAFromFRAM(10, CatRestore)
	if d.Stats().Energy[CatRestore] == 0 {
		t.Error("restore meter empty after DMAFromFRAM")
	}
}

func TestLEAFFTCostGrowsLogLinearly(t *testing.T) {
	costFor := func(n int) float64 {
		d := newTestDevice()
		d.LEAFFT(n)
		return d.Stats().TotalEnergynJ
	}
	c64, c128, c256 := costFor(64), costFor(128), costFor(256)
	if !(c64 < c128 && c128 < c256) {
		t.Errorf("FFT cost not monotonic: %v %v %v", c64, c128, c256)
	}
	// N log N scaling: 128-point should cost less than 2.5x 64-point.
	if c128 > 2.5*c64 {
		t.Errorf("FFT cost scaling looks wrong: c64=%v c128=%v", c64, c128)
	}
}

func TestCPUvsLEAMACEnergy(t *testing.T) {
	// The whole premise of ACE: a vector MAC on the LEA must cost
	// meaningfully less than the same MACs on the CPU.
	n := 1024
	dc := newTestDevice()
	dc.CPUMACs(n)
	cpu := dc.Stats().TotalEnergynJ
	dl := newTestDevice()
	dl.LEAMAC(n)
	lea := dl.Stats().TotalEnergynJ
	if lea*5 > cpu {
		t.Errorf("LEA MAC (%v nJ) not at least 5x cheaper than CPU (%v nJ)", lea, cpu)
	}
}

func TestDMACheaperThanCPUCopyForBulk(t *testing.T) {
	n := 256
	dc := newTestDevice()
	dc.FRAMRead(n, CatFRAMRead) // CPU-driven read of n words
	cpu := dc.Stats().TotalEnergynJ
	dd := newTestDevice()
	dd.DMAFromFRAM(n, CatFRAMRead)
	dma := dd.Stats().TotalEnergynJ
	if dma >= cpu {
		t.Errorf("bulk DMA (%v nJ) should beat CPU copies (%v nJ)", dma, cpu)
	}
}

func TestMonitorSampleReturnsVoltage(t *testing.T) {
	d := newTestDevice()
	if v := d.MonitorSample(); v != 3.3 {
		t.Errorf("MonitorSample = %v, want 3.3 (continuous)", v)
	}
	if d.Stats().Energy[CatMonitor] == 0 {
		t.Error("monitor sample not charged")
	}
}

func TestStatsWallTime(t *testing.T) {
	d := New(DefaultCosts(), &budgetSupply{remaining: 1e9})
	d.CPUOps(16000) // 1 ms at 16 MHz
	d.Reboot()      // budgetSupply reports 1 ms off-time
	s := d.Stats()
	if math.Abs(s.WallSeconds-(s.ActiveSeconds+s.OffSeconds)) > 1e-15 {
		t.Error("wall != active + off")
	}
	if math.Abs(s.OffSeconds-1e-3) > 1e-12 {
		t.Errorf("off seconds = %v, want 1e-3", s.OffSeconds)
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		CatCPU: "cpu", CatLEA: "lea", CatDMA: "dma",
		CatFRAMRead: "fram-read", CatFRAMWrite: "fram-write",
		CatSRAM: "sram", CatCheckpoint: "checkpoint",
		CatRestore: "restore", CatMonitor: "monitor",
		Category(99): "unknown",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, got, want)
		}
	}
}
