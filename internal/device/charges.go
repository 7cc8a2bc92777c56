package device

// Charge helpers: one call per architectural operation. Each helper
// prices its op and routes the price to the right meter category.
// Callers perform the actual arithmetic in Go immediately after the
// helper returns.
//
// Every op kind has exactly one pricing formula, Costs.price. A device
// looks small word counts up in a table filled from that formula once
// per cost table, so a charge pays no int-to-float conversion, float
// arithmetic or division; larger counts evaluate the formula directly.
// Either way the supply sees the same bits.

// opKind names a priced operation.
type opKind uint8

// Priced operation kinds, one per charge helper.
const (
	opCPU opKind = iota
	opCPUMAC
	opSRAM
	opFRAMRead
	opFRAMWrite
	opDMA
	opDMAToFRAM
	opDMAFromFRAM
	opLEAMAC
	opLEAAdd
	opLEACMul
	opLEAFFT
	opMonitor
	numOpKinds
)

// price is what one charged op costs: active cycles, energy in nJ and
// the seconds of activity the supply integrates harvest over.
type price struct {
	cycles uint64
	nJ     float64
	dt     float64
}

// price is the single pricing formula of op kind k applied to n words
// (elements, points or samples, per kind).
func (c *Costs) price(k opKind, n int) price {
	w := uint64(n)
	var cycles uint64
	var nJ float64
	switch k {
	case opCPU:
		cycles = w * c.CPUOpCycles
		nJ = float64(cycles) * c.CPUCyclenJ
	case opCPUMAC:
		cycles = w * c.CPUMACCycles
		nJ = float64(cycles) * c.CPUCyclenJ
	case opSRAM:
		cycles = w * c.SRAMWordCycles
		nJ = float64(cycles)*c.CPUCyclenJ + float64(n)*c.SRAMWordnJ
	case opFRAMRead:
		cycles = w * c.FRAMReadWordCycles
		nJ = float64(cycles)*c.CPUCyclenJ + float64(n)*c.FRAMReadWordnJ
	case opFRAMWrite:
		cycles = w * c.FRAMWriteWordCycles
		nJ = float64(cycles)*c.CPUCyclenJ + float64(n)*c.FRAMWriteWordnJ
	case opDMA:
		cycles, nJ = c.dmaPrice(n, c.DMAWordnJ)
	case opDMAToFRAM:
		cycles, nJ = c.dmaPrice(n, c.DMAWordnJ+c.FRAMWriteWordnJ)
	case opDMAFromFRAM:
		cycles, nJ = c.dmaPrice(n, c.DMAWordnJ+c.FRAMReadWordnJ)
	case opLEAMAC:
		cycles, nJ = c.leaPrice(c.LEASetupCycles + w*c.LEAMACCyclesPerElem)
	case opLEAAdd:
		cycles, nJ = c.leaPrice(c.LEASetupCycles + w*c.LEAAddCyclesPerElem)
	case opLEACMul:
		cycles, nJ = c.leaPrice(c.LEASetupCycles + w*c.LEACMulCyclesPerElem)
	case opLEAFFT:
		// n/2·log2(n) radix-2 butterflies.
		butterflies := uint64(0)
		if n > 1 {
			log2 := uint64(0)
			for v := n; v > 1; v >>= 1 {
				log2++
			}
			butterflies = uint64(n/2) * log2
		}
		cycles, nJ = c.leaPrice(c.LEASetupCycles + butterflies*c.LEAFFTButterflyCycles)
	case opMonitor:
		cycles = w * c.ADCSampleCycles
		nJ = float64(n) * c.ADCSamplenJ
	}
	return price{cycles: cycles, nJ: nJ, dt: float64(cycles) / c.ClockHz}
}

// dmaPrice prices a words-long DMA transfer moving perWordnJ per
// word: the CPU programs the channel, then sleeps in LPM0 while the
// engine moves the words.
func (c *Costs) dmaPrice(words int, perWordnJ float64) (uint64, float64) {
	w := uint64(words)
	return c.DMASetupCycles + w*c.DMAWordCycles,
		float64(c.DMASetupCycles)*c.CPUCyclenJ +
			float64(w*c.DMAWordCycles)*c.LPMCyclenJ +
			float64(words)*perWordnJ
}

// leaPrice prices an LEA operation of the given core-cycle count: LEA
// core energy plus the sleeping CPU in parallel.
func (c *Costs) leaPrice(cycles uint64) (uint64, float64) {
	return cycles, float64(cycles) * (c.LEACyclenJ + c.LPMCyclenJ)
}

// priceTableN bounds the word counts a price table holds: every count
// up to 256, which covers the engines' per-element ops, NV commit
// chunks, conv windows and BCM blocks. Only the entries a fleet uses
// are ever touched, so the unused ones cost no cache.
const priceTableN = 257

// priceTable holds Costs.price(k, n) for every kind and n below
// priceTableN.
type priceTable [numOpKinds][priceTableN]price

func newPriceTable(c Costs) *priceTable {
	t := new(priceTable)
	for k := range t {
		for n := range t[k] {
			t[k][n] = c.price(opKind(k), n)
		}
	}
	return t
}

// defaultPrices is shared by every device on the default cost table;
// devices on any other table fill a private one.
var (
	defaultCosts  = DefaultCosts()
	defaultPrices = newPriceTable(defaultCosts)
)

func pricesFor(c Costs) *priceTable {
	if c == defaultCosts {
		return defaultPrices
	}
	return newPriceTable(c)
}

// priced returns the price of op kind k on n words.
func (d *Device) priced(k opKind, n int) price {
	if uint(n) < priceTableN {
		return d.prices[k][n]
	}
	return d.costs.price(k, n)
}

// charge prices op kind k on n words, draws it from the supply and
// adds it to the current boot's accumulators under category cat. It
// panics with PowerFailure when the supply browns out, before anything
// is added. Every charge helper goes through it.
//
//ehdl:hotpath
func (d *Device) charge(cat Category, k opKind, n int) {
	p := d.priced(k, n)
	if !d.supply.Draw(p.nJ, p.dt) {
		panic(PowerFailure{})
	}
	d.bootCycles += p.cycles
	d.bootEnergy[cat] += p.nJ
}

// CPUOps charges n generic single-cycle ALU operations.
func (d *Device) CPUOps(n int) { d.charge(CatCPU, opCPU, n) }

// CPUMACs charges an n-element software multiply-accumulate loop (the
// BASE/SONIC inner loop, using the memory-mapped hardware multiplier).
func (d *Device) CPUMACs(n int) { d.charge(CatCPU, opCPUMAC, n) }

// SRAMAccess charges n CPU-driven word accesses to SRAM.
func (d *Device) SRAMAccess(words int) { d.charge(CatSRAM, opSRAM, words) }

// FRAMRead charges n CPU-driven word reads from FRAM to the given
// category (CatFRAMRead normally, CatRestore during post-outage
// reloads).
func (d *Device) FRAMRead(words int, cat Category) { d.charge(cat, opFRAMRead, words) }

// FRAMWrite charges n CPU-driven word writes to FRAM to the given
// category (CatFRAMWrite normally, CatCheckpoint for progress
// commits).
func (d *Device) FRAMWrite(words int, cat Category) {
	d.charge(cat, opFRAMWrite, words)
	d.bootFRAMWrites += uint64(words)
}

// DMA charges a words-long DMA transfer; the CPU sleeps in LPM0 while
// the engine moves data (ACE's bulk movement, Fig. 3).
func (d *Device) DMA(words int) { d.charge(CatDMA, opDMA, words) }

// DMAToFRAM charges a words-long DMA transfer whose destination is
// FRAM: DMA movement plus the FRAM write premium per word.
func (d *Device) DMAToFRAM(words int, cat Category) {
	d.charge(cat, opDMAToFRAM, words)
	d.bootFRAMWrites += uint64(words)
}

// DMAFromFRAM charges a words-long DMA transfer whose source is FRAM:
// DMA movement plus the FRAM read premium per word.
func (d *Device) DMAFromFRAM(words int, cat Category) { d.charge(cat, opDMAFromFRAM, words) }

// LEAMAC charges an n-element vector multiply-accumulate on the LEA.
func (d *Device) LEAMAC(n int) { d.charge(CatLEA, opLEAMAC, n) }

// LEAAdd charges an n-element vector add on the LEA.
func (d *Device) LEAAdd(n int) { d.charge(CatLEA, opLEAAdd, n) }

// LEACMul charges an n-element element-wise complex multiply (the MPY
// stage of Algorithm 1).
func (d *Device) LEACMul(n int) { d.charge(CatLEA, opLEACMul, n) }

// LEAFFT charges an n-point complex FFT or IFFT on the LEA
// (n/2·log2(n) radix-2 butterflies).
func (d *Device) LEAFFT(n int) { d.charge(CatLEA, opLEAFFT, n) }

// MonitorSample charges one voltage-monitor ADC sample and returns the
// rail voltage (FLEX's on-demand checkpoint trigger).
func (d *Device) MonitorSample() float64 {
	d.charge(CatMonitor, opMonitor, 1)
	return d.supply.Voltage()
}
