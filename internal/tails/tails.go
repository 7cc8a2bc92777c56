// Package tails reimplements TAILS [Gobieski et al., ASPLOS'19], the
// paper's hardware-accelerated intermittent baseline: SONIC's loop
// continuation at vector-op granularity, with the actual arithmetic
// done by the LEA over DMA-staged SRAM buffers. A power failure rolls
// execution back to the start of the in-flight vector operation — at
// most one kernel window or one FC row chunk — because the LEA's SRAM
// operands are volatile. TAILS runs the uncompressed model: the FFT
// tricks that make BCM profitable need FLEX-style stage checkpointing
// it does not have (Fig. 6).
package tails

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// maxVec is the largest vector the LEA workspace holds at once; longer
// rows are processed in chunks (the real LEA owns 4 KB of SRAM).
const maxVec = 1024

// controlOpsPerElement is the per-element task-transition overhead.
const controlOpsPerElement = 12

// Engine is the TAILS runtime for one inference.
type Engine struct {
	d     *device.Device
	store *exec.ModelStore

	in   *device.NVQ15
	acts []*device.NVQ15

	// progress counts completed output elements (committed after each
	// vector op completes).
	progress device.NVWord
	// bcmState double-buffers the mid-row FIR state of a BCM block
	// row: [acc as 2k Q15 words | next j | element tag lo | tag hi].
	// Committed after every block so an outage rolls back at most one
	// FIR command.
	bcmState *device.NVDoubleQ15
	bcmMaxK  int

	// SRAM staging for the LEA: one window/row operand buffer, one
	// weight buffer, and the FIR row accumulators for BCM layers.
	xBuf   []fixed.Q15
	wBuf   []fixed.Q15
	accBuf []fixed.Q31

	// windowOffs[li] and windowRuns[li] hold conv layer li's window
	// offsets and the lengths of their contiguous runs (nil for other
	// kinds).
	windowOffs [][]int
	windowRuns [][]int
	elemBase   []uint64
}

// New builds a TAILS engine over a flashed model store and input.
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15) (*Engine, error) {
	m := store.Model
	if got, want := len(input), m.InShape[0]*m.InShape[1]*m.InShape[2]; got != want {
		return nil, fmt.Errorf("tails: input length %d, want %d", got, want)
	}
	e := &Engine{d: d, store: store,
		windowOffs: make([][]int, len(m.Layers)), windowRuns: make([][]int, len(m.Layers))}
	in, err := device.NewNVQ15(d, len(input))
	if err != nil {
		return nil, err
	}
	copy(in.Raw(), input)
	e.in = in

	vecLen := 0
	base := uint64(0)
	for li := range m.Layers {
		l := &m.Layers[li]
		buf, err := device.NewNVQ15(d, quant.LayerOutLen(l.Spec))
		if err != nil {
			return nil, err
		}
		e.acts = append(e.acts, buf)
		switch l.Spec.Kind {
		case "conv":
			e.windowOffs[li] = exec.WindowOffsets(l)
			e.windowRuns[li] = contiguousRuns(e.windowOffs[li])
			if n := exec.KernelLen(l); n > vecLen {
				vecLen = n
			}
		case "dense":
			n := l.Spec.In
			if n > maxVec {
				n = maxVec
			}
			if n > vecLen {
				vecLen = n
			}
		case "bcm":
			if l.Spec.K > vecLen {
				vecLen = l.Spec.K
			}
		}
		e.elemBase = append(e.elemBase, base)
		base += uint64(elementCount(l))
	}
	e.elemBase = append(e.elemBase, base)

	e.xBuf, err = device.AllocQ15(d, vecLen)
	if err != nil {
		return nil, err
	}
	e.wBuf, err = device.AllocQ15(d, vecLen)
	if err != nil {
		return nil, err
	}
	maxK := 0
	for li := range m.Layers {
		if s := m.Layers[li].Spec; s.Kind == "bcm" && s.K > maxK {
			maxK = s.K
		}
	}
	if maxK > 0 {
		if e.accBuf, err = device.AllocQ31(d, maxK); err != nil {
			return nil, err
		}
		if e.bcmState, err = device.NewNVDoubleQ15(d, 2*maxK+3); err != nil {
			return nil, err
		}
		e.bcmMaxK = maxK
	}
	if err := d.ReserveFRAM(8); err != nil {
		return nil, err
	}
	return e, nil
}

func elementCount(l *quant.QLayer) int {
	switch l.Spec.Kind {
	case "flatten":
		return 1
	case "bcm":
		// One task per block row: the FIR command produces k outputs.
		return (l.Spec.Out + l.Spec.K - 1) / l.Spec.K
	default:
		return quant.LayerOutLen(l.Spec)
	}
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string { return "tails" }

// Output implements exec.Engine.
func (e *Engine) Output() []fixed.Q15 {
	last := e.acts[len(e.acts)-1]
	return append([]fixed.Q15(nil), last.Raw()...)
}

// Progress implements intermittent.ProgressReporter.
func (e *Engine) Progress() uint64 { return e.progress.Peek() }

// Boot implements intermittent.Program.
func (e *Engine) Boot(d *device.Device) error {
	m := e.store.Model
	done := e.progress.Read(d, device.CatRestore)
	total := e.elemBase[len(e.elemBase)-1]
	for done < total {
		li := e.layerOf(done)
		l := &m.Layers[li]
		in := e.in
		if li > 0 {
			in = e.acts[li-1]
		}
		out := e.acts[li]
		elem := int(done - e.elemBase[li])
		switch l.Spec.Kind {
		case "conv":
			e.convElem(d, li, l, in, out, elem)
		case "pool":
			e.poolElem(d, l, in, out, elem)
		case "relu":
			e.reluElem(d, l, in, out, elem)
		case "flatten":
			e.copyThrough(d, in, out)
		case "dense":
			e.denseElem(d, li, l, in, out, elem)
		case "bcm":
			e.bcmElem(d, li, l, in, out, elem)
		default:
			return fmt.Errorf("tails: unsupported layer kind %q", l.Spec.Kind)
		}
		done++
		e.progress.Write(d, device.CatCheckpoint, done)
	}
	return nil
}

func (e *Engine) layerOf(elem uint64) int {
	for li := 0; li < len(e.elemBase)-1; li++ {
		if elem < e.elemBase[li+1] {
			return li
		}
	}
	panic("tails: element cursor out of range")
}

// contiguousRuns returns the lengths of the maximal stretches of
// consecutive offsets in offs, in order.
func contiguousRuns(offs []int) []int {
	var runs []int
	for i := 0; i < len(offs); {
		j := i + 1
		for j < len(offs) && offs[j] == offs[j-1]+1 {
			j++
		}
		runs = append(runs, j-i)
		i = j
	}
	return runs
}

// gatherWindow DMAs the kernel window for output position (oy, ox)
// into xBuf: one DMA per contiguous run of window offsets (an input
// row segment), the access pattern the real DMA engine supports.
func (e *Engine) gatherWindow(d *device.Device, l *quant.QLayer, in *device.NVQ15, oy, ox int, offs, runs []int) {
	s := l.Spec
	xRaw := in.Raw()
	origin := oy*s.InW + ox
	i := 0
	for _, n := range runs {
		d.DMAFromFRAM(n, device.CatDMA)
		src := origin + offs[i]
		copy(e.xBuf[i:i+n], xRaw[src:src+n])
		i += n
	}
}

func (e *Engine) convElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int) {
	s := l.Spec
	oh := s.InH - s.KH + 1
	ow := s.InW - s.KW + 1
	oc := elem / (oh * ow)
	rem := elem % (oh * ow)
	oy := rem / ow
	ox := rem % ow
	offs := e.windowOffs[li]
	win := len(offs)

	d.CPUOps(controlOpsPerElement)
	// TAILS re-stages weights and window per element: its tasks are
	// self-contained so that any of them can be replayed.
	e.gatherWindow(d, l, in, oy, ox, offs, e.windowRuns[li])
	d.DMAFromFRAM(win, device.CatDMA)
	copy(e.wBuf[:win], e.store.W[li].Raw()[oc*win:(oc+1)*win])

	d.LEAMAC(win)
	acc := fixed.Dot(e.wBuf[:win], e.xBuf[:win])
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), e.store.B[li].Raw()[oc])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

func (e *Engine) denseElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int) {
	s := l.Spec
	wRaw := e.store.W[li].Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	var acc fixed.Q31
	for start := 0; start < s.In; start += maxVec {
		end := start + maxVec
		if end > s.In {
			end = s.In
		}
		n := end - start
		d.DMAFromFRAM(n, device.CatDMA)
		copy(e.xBuf[:n], xRaw[start:end])
		d.DMAFromFRAM(n, device.CatDMA)
		copy(e.wBuf[:n], wRaw[elem*s.In+start:elem*s.In+end])
		d.LEAMAC(n)
		for k := 0; k < n; k++ {
			acc = fixed.MAC(acc, e.wBuf[k], e.xBuf[k])
		}
	}
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), e.store.B[li].Raw()[elem])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// bcmElem computes one block row (k outputs) of a BCM layer with the
// LEA's FIR command and circular input addressing: each staged block
// pair (w_ij, x_j) is one k-tap filter over k circularly-addressed
// positions — k² MAC cycles, no FFT. This is how a TAILS-style runtime
// best exploits the compressed storage without Algorithm 1; it does
// O(k/log k) more arithmetic than ACE (Fig. 8 quantifies the gap).
// The FLEX-style stage intermediates do not exist here: a power
// failure mid-row rolls back to the row's start (Fig. 6, left).
func (e *Engine) bcmElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int) {
	s := l.Spec
	k := s.K
	q := (s.In + k - 1) / k
	i := elem // element = block row index
	wRaw := e.store.W[li].Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	scale := fixed.One
	if l.CosNorm {
		d.LEAMAC(s.In)
		d.CPUOps(60)
		scale = quant.InputScale(xRaw[:s.In], l.SIn)
	}
	// Row accumulators live in LEA SRAM for the duration of the row;
	// the committed copy in FRAM survives outages.
	acc := e.accBuf[:k]
	j0 := e.restoreBCMRow(d, uint64(elem), acc)
	if j0 == 0 {
		for t := range acc {
			acc[t] = 0
		}
		d.SRAMAccess(k)
	}
	for j := j0; j < q; j++ {
		w := wRaw[(i*q+j)*k : (i*q+j+1)*k]
		lim := s.In - j*k
		if lim > k {
			lim = k
		}
		d.DMAFromFRAM(k, device.CatDMA)
		copy(e.wBuf[:k], w)
		d.DMAFromFRAM(lim, device.CatDMA)
		copy(e.xBuf[:lim], xRaw[j*k:j*k+lim])
		if l.CosNorm {
			d.LEAMAC(lim)
			fixed.ScaleVec(e.xBuf[:lim], e.xBuf[:lim], scale)
		}
		// One FIR command: k outputs × lim taps of MAC throughput.
		d.LEAMAC(k * lim)
		for r := 0; r < k; r++ {
			a := acc[r]
			for c := 0; c < lim; c++ {
				a = fixed.MAC(a, e.wBuf[(r-c+k)%k], e.xBuf[c])
			}
			acc[r] = a
		}
		e.commitBCMRow(d, uint64(elem), j+1, acc)
	}
	rowLen := k
	if rem := s.Out - i*k; rem < rowLen {
		rowLen = rem
	}
	d.FRAMRead(rowLen, device.CatFRAMRead) // biases
	d.CPUOps(2 * rowLen)
	bRaw := e.store.B[li].Raw()
	for r := 0; r < rowLen; r++ {
		v := fixed.SatAdd(fixed.NarrowQ31(acc[r], l.AccShift()), bRaw[i*k+r])
		e.wBuf[r] = v
	}
	out.StoreDMA(d, device.CatFRAMWrite, i*k, e.wBuf[:rowLen])
}

// commitBCMRow persists the FIR accumulators plus the next block
// index, tagged with the element they belong to, in one atomic
// double-buffered commit.
func (e *Engine) commitBCMRow(d *device.Device, tag uint64, nextJ int, acc []fixed.Q31) {
	k := e.bcmMaxK
	buf := make([]fixed.Q15, 2*k+3)
	for t, v := range acc {
		buf[2*t] = fixed.Q15(uint16(uint32(v)))
		buf[2*t+1] = fixed.Q15(int16(int32(v) >> 16))
	}
	buf[2*k] = fixed.Q15(int16(nextJ))
	buf[2*k+1] = fixed.Q15(uint16(uint32(tag)))
	buf[2*k+2] = fixed.Q15(uint16(uint32(tag) >> 16))
	e.bcmState.Commit(d, device.CatCheckpoint, buf)
}

// restoreBCMRow reloads mid-row FIR state for element tag, returning
// the block index to resume at (0 when no matching state exists).
func (e *Engine) restoreBCMRow(d *device.Device, tag uint64, acc []fixed.Q31) int {
	if e.bcmState.PeekSeq() == 0 {
		return 0 // nothing ever committed
	}
	k := e.bcmMaxK
	buf := make([]fixed.Q15, 2*k+3)
	e.bcmState.Load(d, device.CatRestore, buf)
	saved := uint64(uint16(buf[2*k+1])) | uint64(uint16(buf[2*k+2]))<<16
	if saved != tag&0xFFFFFFFF {
		return 0
	}
	for t := range acc {
		lo := uint32(uint16(buf[2*t]))
		hi := uint32(uint16(buf[2*t+1])) << 16
		acc[t] = fixed.Q31(int32(hi | lo))
	}
	return int(int16(buf[2*k]))
}

func (e *Engine) poolElem(d *device.Device, l *quant.QLayer, in, out *device.NVQ15, elem int) {
	s := l.Spec
	oh := s.InH / s.PoolSize
	ow := s.InW / s.PoolSize
	c := elem / (oh * ow)
	rem := elem % (oh * ow)
	oy := rem / ow
	ox := rem % ow
	n := s.PoolSize * s.PoolSize
	d.FRAMRead(n, device.CatFRAMRead)
	d.CPUOps(n + controlOpsPerElement)
	xRaw := in.Raw()
	best := fixed.MinusOne
	for dy := 0; dy < s.PoolSize; dy++ {
		for dx := 0; dx < s.PoolSize; dx++ {
			v := xRaw[c*s.InH*s.InW+(oy*s.PoolSize+dy)*s.InW+ox*s.PoolSize+dx]
			if v > best {
				best = v
			}
		}
	}
	out.StoreOne(d, device.CatFRAMWrite, elem, best)
}

func (e *Engine) reluElem(d *device.Device, l *quant.QLayer, in, out *device.NVQ15, elem int) {
	d.FRAMRead(1, device.CatFRAMRead)
	d.CPUOps(2 + 2)
	v := in.Raw()[elem]
	if v < 0 {
		v = 0
	}
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// copyThrough is a flatten layer: a bulk FRAM-to-FRAM DMA copy.
func (e *Engine) copyThrough(d *device.Device, in, out *device.NVQ15) {
	n := in.Len()
	for start := 0; start < n; start += maxVec {
		end := start + maxVec
		if end > n {
			end = n
		}
		d.DMAFromFRAM(end-start, device.CatDMA)
		d.DMAToFRAM(end-start, device.CatDMA)
		copy(out.Raw()[start:end], in.Raw()[start:end])
	}
}
