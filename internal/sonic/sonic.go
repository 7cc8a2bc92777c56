// Package sonic reimplements SONIC [Gobieski et al., ASPLOS'19], the
// paper's software-only intermittent baseline: the uncompressed model
// computed element-wise on the CPU, with loop continuation — the loop
// control state and the running accumulator are committed to FRAM at a
// fine, fixed stride so that a power failure loses at most a few MAC
// iterations. The commits are exactly SONIC's cost: they tax every
// inner loop all the time, failure or not, which is why SONIC trails
// BASE under continuous power (Fig. 7(a)) yet finishes inferences that
// BASE never can (Fig. 7(b)).
package sonic

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// commitStride is the number of MAC iterations between accumulator
// commits — SONIC's loop-continuation granularity.
const commitStride = 4

// controlOpsPerElement mirrors the baseline's loop overhead, plus
// SONIC's task-transition bookkeeping.
const controlOpsPerElement = 16

// Engine is the SONIC runtime for one inference.
type Engine struct {
	d     *device.Device
	store *exec.ModelStore

	in   *device.NVQ15
	acts []*device.NVQ15

	// progress counts fully completed output elements across the whole
	// inference (monotonic; the runner watches it).
	progress device.NVWord
	// accWord holds the packed mid-element state: acc (32 bits) and
	// inner index (16 bits). accTag holds the global element index the
	// accWord belongs to. Written acc-first, tag-second, so a torn pair
	// is detected by tag mismatch and merely costs a fresh element.
	accWord device.NVWord
	accTag  device.NVWord
	// scaleWord caches the cosine-normalization input factor of the
	// BCM layer being executed, tagged by layer+1 (computing ‖x‖ per
	// output element would double SONIC's work; per layer it is
	// negligible). A stale or torn value merely causes a recompute.
	scaleWord device.NVWord

	// windowOffs[li] holds conv layer li's window offsets (nil for
	// other kinds).
	windowOffs [][]int
	// wOps and xOps hold one element's gathered MAC operands. They are
	// host scratch standing in for the operands the MSP430 reads from
	// FRAM as it goes (macRun charges those reads), not device SRAM.
	wOps, xOps []fixed.Q15
	// elemBase[li] is the global element index of layer li's first
	// output element; elemBase[len] is the total.
	elemBase []uint64
}

// New builds a SONIC engine over a flashed model store and input.
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15) (*Engine, error) {
	m := store.Model
	if got, want := len(input), m.InShape[0]*m.InShape[1]*m.InShape[2]; got != want {
		return nil, fmt.Errorf("sonic: input length %d, want %d", got, want)
	}
	e := &Engine{d: d, store: store, windowOffs: make([][]int, len(m.Layers))}
	in, err := device.NewNVQ15(d, len(input))
	if err != nil {
		return nil, err
	}
	copy(in.Raw(), input)
	e.in = in

	base := uint64(0)
	opsLen := 0
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
			opsLen = max(opsLen, len(e.windowOffs[li]))
		case "bcm":
			opsLen = max(opsLen, l.Spec.In)
		}
		e.elemBase = append(e.elemBase, base)
		base += uint64(elementCount(l))
	}
	e.elemBase = append(e.elemBase, base)
	e.wOps = make([]fixed.Q15, opsLen)
	e.xOps = make([]fixed.Q15, opsLen)
	// Control state lives in FRAM.
	if err := d.ReserveFRAM(3 * 8); err != nil {
		return nil, err
	}
	return e, nil
}

// elementCount returns the number of checkpointable output elements of
// a layer (one per output value; flatten is a bulk copy counted as a
// single element).
func elementCount(l *quant.QLayer) int {
	if l.Spec.Kind == "flatten" {
		return 1
	}
	return quant.LayerOutLen(l.Spec)
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string { return "sonic" }

// Output implements exec.Engine.
func (e *Engine) Output() []fixed.Q15 {
	last := e.acts[len(e.acts)-1]
	return append([]fixed.Q15(nil), last.Raw()...)
}

// Progress implements intermittent.ProgressReporter.
func (e *Engine) Progress() uint64 { return e.progress.Peek() }

// Boot implements intermittent.Program: resume from the committed
// element cursor.
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
			e.convElem(d, li, l, in, out, elem, done)
		case "pool":
			e.poolElem(d, l, in, out, elem)
		case "relu":
			e.reluElem(d, l, in, out, elem)
		case "flatten":
			e.copyThrough(d, in, out)
		case "dense":
			e.denseElem(d, li, l, in, out, elem, done)
		case "bcm":
			e.bcmElem(d, li, l, in, out, elem, done)
		default:
			return fmt.Errorf("sonic: unsupported layer kind %q", l.Spec.Kind)
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
	panic("sonic: element cursor out of range")
}

// resumeAcc recovers the committed accumulator for element tag, if
// any.
func (e *Engine) resumeAcc(d *device.Device, tag uint64) (fixed.Q31, int) {
	savedTag := e.accTag.Read(d, device.CatRestore)
	if savedTag != tag {
		return 0, 0
	}
	w := e.accWord.Read(d, device.CatRestore)
	return fixed.Q31(int32(uint32(w >> 16))), int(uint16(w))
}

// commitAcc persists the mid-element accumulator: acc word first, tag
// second (torn pairs fail safe to a fresh element).
func (e *Engine) commitAcc(d *device.Device, tag uint64, acc fixed.Q31, inner int) {
	e.accWord.Write(d, device.CatCheckpoint, uint64(uint32(int32(acc)))<<16|uint64(uint16(inner)))
	e.accTag.Write(d, device.CatCheckpoint, tag)
}

// macRun performs the SONIC inner loop over the operand pairs
// (w[t], x[t]) from index start: chunks of commitStride MACs, each
// charged and then committed. extraOps charges additional per-MAC
// index arithmetic (modular indexing for BCM rows).
func (e *Engine) macRun(d *device.Device, tag uint64, acc fixed.Q31, start int,
	w, x []fixed.Q15, extraOps int) fixed.Q31 {
	n := len(w)
	x = x[:n]
	for i := start; i < n; i += commitStride {
		end := min(i+commitStride, n)
		d.FRAMRead(2*(end-i), device.CatFRAMRead)
		d.CPUMACs(end - i)
		if extraOps > 0 {
			d.CPUOps(extraOps * (end - i))
		}
		for k := i; k < end; k++ {
			acc = fixed.MAC(acc, w[k], x[k])
		}
		e.commitAcc(d, tag, acc, end)
	}
	return acc
}

func (e *Engine) convElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	oh := s.InH - s.KH + 1
	ow := s.InW - s.KW + 1
	oc := elem / (oh * ow)
	rem := elem % (oh * ow)
	oy := rem / ow
	ox := rem % ow
	offs := e.windowOffs[li]
	win := len(offs)
	wRaw := e.store.W[li].Raw()
	xRaw := in.Raw()
	origin := oy*s.InW + ox

	d.CPUOps(controlOpsPerElement)
	acc, start := e.resumeAcc(d, tag)
	x := e.xOps[:win]
	for k := start; k < win; k++ {
		x[k] = xRaw[origin+offs[k]]
	}
	acc = e.macRun(d, tag, acc, start, wRaw[oc*win:(oc+1)*win], x, 0)
	d.FRAMRead(1, device.CatFRAMRead) // bias
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), e.store.B[li].Raw()[oc])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

func (e *Engine) denseElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	wRaw := e.store.W[li].Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	acc, start := e.resumeAcc(d, tag)
	acc = e.macRun(d, tag, acc, start, wRaw[elem*s.In:(elem+1)*s.In], xRaw, 0)
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), e.store.B[li].Raw()[elem])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// bcmElem computes one output row of a BCM layer in the time domain
// (SONIC has no FFT kernel; it streams MACs over the circulant
// generators with modular indexing, committing like any other loop).
func (e *Engine) bcmElem(d *device.Device, li int, l *quant.QLayer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	k := s.K
	q := (s.In + k - 1) / k
	rk := elem % k
	i := elem / k
	wRaw := e.store.W[li].Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	extraOps, scale := 1, fixed.Q15(0)
	if l.CosNorm {
		scale = e.layerScale(d, li, l, xRaw[:s.In])
		extraOps = 2
	}
	acc, start := e.resumeAcc(d, tag)
	x := xRaw[:s.In]
	if l.CosNorm {
		x = e.xOps[:s.In]
		for t := start; t < s.In; t++ {
			x[t] = fixed.Mul(xRaw[t], scale)
		}
	}
	// Term t = j·k + c multiplies x[t] by entry (rk − c) mod k of
	// generator block (i, j): walk the blocks and step the column
	// down, wrapping, instead of dividing per term.
	w := e.wOps[:s.In]
	c := start % k
	col := (rk - c + k) % k
	base := (i*q + start/k) * k
	for t := start; t < s.In; t++ {
		w[t] = wRaw[base+col]
		if col == 0 {
			col = k
		}
		col--
		if c++; c == k {
			c, col, base = 0, rk, base+k
		}
	}
	acc = e.macRun(d, tag, acc, start, w, x, extraOps)
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), e.store.B[li].Raw()[elem])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// layerScale returns the cosine-normalization factor for layer li,
// computing and caching it in FRAM on first use.
func (e *Engine) layerScale(d *device.Device, li int, l *quant.QLayer, x []fixed.Q15) fixed.Q15 {
	w := e.scaleWord.Read(d, device.CatRestore)
	if w>>16 == uint64(li+1) {
		return fixed.Q15(int16(uint16(w)))
	}
	d.CPUMACs(len(x))
	d.CPUOps(60)
	scale := quant.InputScale(x, l.SIn)
	e.scaleWord.Write(d, device.CatCheckpoint, uint64(li+1)<<16|uint64(uint16(scale)))
	return scale
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
	d.CPUOps(2 + 4) // compare plus SONIC task glue
	v := in.Raw()[elem]
	if v < 0 {
		v = 0
	}
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

func (e *Engine) copyThrough(d *device.Device, in, out *device.NVQ15) {
	n := in.Len()
	d.FRAMRead(n, device.CatFRAMRead)
	d.FRAMWrite(n, device.CatFRAMWrite)
	copy(out.Raw(), in.Raw())
}
