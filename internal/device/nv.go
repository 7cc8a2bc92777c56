package device

import "ehdl/internal/fixed"

// Nonvolatile (FRAM-resident) state. Values held in these types
// survive Reboot; every access is charged. Word writes are atomic with
// respect to power failure (FRAM writes whole words on real hardware);
// multi-word stores are chunked, so an outage can leave a plain NVQ15
// partially updated — exactly the hazard FLEX's double-buffered commit
// exists to avoid.

// commitChunkWords is the number of 16-bit words charged (and then
// copied) per atomic chunk of a bulk NV store or load.
const commitChunkWords = 32

// NVWord is a single nonvolatile control word (loop index, state bits,
// selector). Reads and writes are atomic.
type NVWord struct {
	v uint64
}

// Read charges one FRAM word read and returns the stored value.
func (w *NVWord) Read(d *Device, cat Category) uint64 {
	d.FRAMRead(1, cat)
	return w.v
}

// Write charges one FRAM word write and stores v atomically.
func (w *NVWord) Write(d *Device, cat Category, v uint64) {
	d.FRAMWrite(1, cat)
	w.v = v
	d.noteNVWord(v)
}

// Peek returns the value without charging — for assertions in tests
// and post-run report generation only.
func (w *NVWord) Peek() uint64 { return w.v }

// Poke sets the value without charging or logging — for host-side
// setup and intermittent.Skippable SkipBoots appliers, whose charges
// the runner replays on the boot ledger instead.
func (w *NVWord) Poke(v uint64) { w.v = v }

// NVQ15 is a persistent Q15 buffer (weights, staged activations).
type NVQ15 struct {
	data []fixed.Q15
}

// NewNVQ15 reserves a persistent buffer of n Q15 words, failing when
// the FRAM is exhausted.
func NewNVQ15(d *Device, n int) (*NVQ15, error) {
	if err := d.ReserveFRAM(2 * n); err != nil {
		return nil, err
	}
	return &NVQ15{data: make([]fixed.Q15, n)}, nil
}

// Len returns the buffer length in Q15 words.
func (b *NVQ15) Len() int { return len(b.data) }

// Store copies src into the buffer at offset, charging CPU-driven FRAM
// writes chunk by chunk. An outage mid-store leaves earlier chunks
// written and later ones not.
func (b *NVQ15) Store(d *Device, cat Category, offset int, src []fixed.Q15) {
	for start := 0; start < len(src); start += commitChunkWords {
		end := min(start+commitChunkWords, len(src))
		d.FRAMWrite(end-start, cat)
		copy(b.data[offset+start:offset+end], src[start:end])
		d.noteNVWords(offset+start, src[start:end])
	}
}

// StoreDMA is Store using the DMA engine for bulk movement (cheaper
// per word; the CPU sleeps).
func (b *NVQ15) StoreDMA(d *Device, cat Category, offset int, src []fixed.Q15) {
	for start := 0; start < len(src); start += commitChunkWords {
		end := min(start+commitChunkWords, len(src))
		d.DMAToFRAM(end-start, cat)
		copy(b.data[offset+start:offset+end], src[start:end])
		d.noteNVWords(offset+start, src[start:end])
	}
}

// Load copies the buffer range [offset, offset+len(dst)) into dst,
// charging CPU-driven FRAM reads.
func (b *NVQ15) Load(d *Device, cat Category, offset int, dst []fixed.Q15) {
	for start := 0; start < len(dst); start += commitChunkWords {
		end := min(start+commitChunkWords, len(dst))
		d.FRAMRead(end-start, cat)
		copy(dst[start:end], b.data[offset+start:offset+end])
	}
}

// LoadDMA is Load using the DMA engine.
func (b *NVQ15) LoadDMA(d *Device, cat Category, offset int, dst []fixed.Q15) {
	for start := 0; start < len(dst); start += commitChunkWords {
		end := min(start+commitChunkWords, len(dst))
		d.DMAFromFRAM(end-start, cat)
		copy(dst[start:end], b.data[offset+start:offset+end])
	}
}

// StoreOne writes a single element (SONIC-style per-element output
// commit).
func (b *NVQ15) StoreOne(d *Device, cat Category, i int, v fixed.Q15) {
	d.FRAMWrite(1, cat)
	b.data[i] = v
	d.noteNVWords(i, []fixed.Q15{v})
}

// LoadOne reads a single element.
func (b *NVQ15) LoadOne(d *Device, cat Category, i int) fixed.Q15 {
	d.FRAMRead(1, cat)
	return b.data[i]
}

// Raw exposes the underlying storage without charging. It exists for
// test assertions and for host-side setup (loading a model image into
// "flash" before the experiment starts); runtimes must not use it.
func (b *NVQ15) Raw() []fixed.Q15 { return b.data }

// NVDoubleQ15 is a double-buffered persistent Q15 buffer with atomic
// commit: writers fill the inactive bank, then flip a selector word.
// A power failure at any point leaves the previously committed bank
// intact — FLEX's mechanism for checkpointing intermediate results
// without torn states.
type NVDoubleQ15 struct {
	bank [2]*NVQ15
	// sel holds the active bank index in bit 0 and a monotonically
	// increasing commit sequence number in the remaining bits.
	sel NVWord
}

// NewNVDoubleQ15 reserves a double buffer of n Q15 words per bank.
func NewNVDoubleQ15(d *Device, n int) (*NVDoubleQ15, error) {
	a, err := NewNVQ15(d, n)
	if err != nil {
		return nil, err
	}
	b, err := NewNVQ15(d, n)
	if err != nil {
		return nil, err
	}
	if err := d.ReserveFRAM(8); err != nil { // selector word
		return nil, err
	}
	return &NVDoubleQ15{bank: [2]*NVQ15{a, b}}, nil
}

// Len returns the per-bank length in Q15 words.
func (b *NVDoubleQ15) Len() int { return b.bank[0].Len() }

// Commit atomically replaces the committed contents with src using DMA
// bulk movement: fill the inactive bank chunk by chunk, then flip the
// selector in a single word write. src may be shorter than the bank
// (a prefix commit): only len(src) words are charged and written, and
// the reader is expected to know — from data inside the prefix — how
// much of the bank is meaningful.
func (b *NVDoubleQ15) Commit(d *Device, cat Category, src []fixed.Q15) {
	cur := b.sel.Read(d, cat)
	inactive := (cur & 1) ^ 1
	b.bank[inactive].StoreDMA(d, cat, 0, src)
	seq := (cur >> 1) + 1
	b.sel.Write(d, cat, seq<<1|inactive)
}

// Load copies the first len(dst) words of the committed bank into dst.
func (b *NVDoubleQ15) Load(d *Device, cat Category, dst []fixed.Q15) {
	b.LoadAt(d, cat, 0, dst)
}

// LoadAt copies len(dst) words of the committed bank starting at
// offset into dst.
func (b *NVDoubleQ15) LoadAt(d *Device, cat Category, offset int, dst []fixed.Q15) {
	cur := b.sel.Read(d, cat)
	b.bank[cur&1].LoadDMA(d, cat, offset, dst)
}

// Seq returns the commit sequence number, charging one word read.
// Monotonicity of this value across reboots is FLEX's progress
// invariant.
func (b *NVDoubleQ15) Seq(d *Device, cat Category) uint64 {
	return b.sel.Read(d, cat) >> 1
}

// PeekSeq returns the commit sequence without charging (tests only).
func (b *NVDoubleQ15) PeekSeq() uint64 { return b.sel.Peek() >> 1 }
