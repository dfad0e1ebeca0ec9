// Package autodiff implements a small, real neural-network runtime —
// actual float32 forward/backward passes, not descriptors — used by the
// functional plane for the paper's statistical experiments (Fig. 11:
// exact synchronization vs 1-bit quantization on a CIFAR-10-quick-style
// CNN).
//
// Activations are batch-major matrices (rows = samples, cols = flattened
// C·H·W features). FC layers expose their per-sample sufficient factors
// (u = output delta, v = input activation) so the trainer can route them
// through SFB.
//
// Layers own parameters and parameter gradients only. Everything a pass
// produces — outputs, input gradients, pooling argmax — lives in a
// caller-owned Scratch, sized on first use and Resized after that, so a
// steady-state pass allocates nothing and any number of passes (the
// network's one training workspace, many Predictors) share a layer.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Scratch holds what one pass through one layer produces. A Scratch
// belongs to one workspace slot: it must see the same layer on every
// pass, and one pass at a time.
type Scratch struct {
	// Out is the layer's forward output, K×out.
	Out tensor.Matrix
	// DX is dL/dx from the last Backward that was asked for it, K×in.
	DX tensor.Matrix
	// argmax is MaxPool2's winning input index per output cell.
	argmax []int
}

// Layer is one differentiable stage.
type Layer interface {
	// Forward computes the output for the K×in batch x into s.Out. It
	// reads the layer's parameters and writes only s, so concurrent
	// Forwards over one layer are safe when each has its own Scratch.
	Forward(s *Scratch, x *tensor.Matrix)
	// Backward consumes dout = dL/dout (K×out) of the pass whose
	// Forward(s, x) ran last. It overwrites the layer's parameter
	// gradients (mean over the batch; nothing is accumulated) and,
	// when needDX, writes dL/dx into s.DX. A network's first layer is
	// run with needDX false: nothing consumes its input gradient.
	Backward(s *Scratch, x, dout *tensor.Matrix, needDX bool)
	// Params returns the layer's trainable tensors (possibly empty).
	Params() []*tensor.Matrix
	// Grads returns the gradients matching Params.
	Grads() []*tensor.Matrix
	// Name identifies the layer.
	Name() string
}

// ---- Fully connected -------------------------------------------------------

// FC is a fully connected layer y = x·Wᵀ + b with W of shape out×in.
type FC struct {
	LayerName string
	W, B      *tensor.Matrix // W: out×in, B: 1×out
	GW, GB    *tensor.Matrix

	// FactorOnly makes Backward skip the dense weight-gradient GEMM: the
	// gradient then exists only as the sufficient factor (paper §3.2 —
	// the sender ships (u, v) so that it need not materialise uᵀ·v) and
	// GW keeps whatever it held. The trainer sets it exactly while W's
	// live route is SFB.
	FactorOnly bool

	// lastX (K×in) and lastDout (K×out) are the last Backward's
	// operands — the sufficient factor. They alias the pass's buffers.
	lastX, lastDout *tensor.Matrix

	// borrowedSF is the shared wrapper BorrowSufficientFactor hands
	// out, re-pointed at the live buffers on every call.
	borrowedSF tensor.SufficientFactor
}

// NewFC builds an FC layer with Xavier-style initialization from rng.
func NewFC(name string, in, out int, rng *rand.Rand) *FC {
	fc := &FC{
		LayerName: name,
		W:         tensor.NewMatrix(out, in),
		B:         tensor.NewMatrix(1, out),
		GW:        tensor.NewMatrix(out, in),
		GB:        tensor.NewMatrix(1, out),
	}
	fc.W.Randn(rng, math.Sqrt(2.0/float64(in)))
	return fc
}

// Name returns the layer name.
func (f *FC) Name() string { return f.LayerName }

// Forward computes y = x·Wᵀ + b.
func (f *FC) Forward(s *Scratch, x *tensor.Matrix) {
	y := &s.Out
	y.Resize(x.Rows, f.W.Rows)
	tensor.MulTransBInto(y, x, f.W)
	bias := f.B.Row(0)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j, b := range bias {
			row[j] += b
		}
	}
}

// Backward writes dW = doutᵀ·x (unless FactorOnly) and db = Σ dout in
// place and, when asked, dx = dout·W.
func (f *FC) Backward(s *Scratch, x, dout *tensor.Matrix, needDX bool) {
	f.lastX, f.lastDout = x, dout
	if !f.FactorOnly {
		tensor.MulTransAInto(f.GW, dout, x)
	}
	f.GB.Zero()
	gb := f.GB.Data
	for i := 0; i < dout.Rows; i++ {
		for j, v := range dout.Row(i) {
			gb[j] += v
		}
	}
	if needDX {
		s.DX.Resize(dout.Rows, f.W.Cols)
		tensor.MulInto(&s.DX, dout, f.W)
	}
}

// Params returns [W, B].
func (f *FC) Params() []*tensor.Matrix { return []*tensor.Matrix{f.W, f.B} }

// Grads returns [GW, GB].
func (f *FC) Grads() []*tensor.Matrix { return []*tensor.Matrix{f.GW, f.GB} }

// SufficientFactor returns the rank-1 decomposition of the last
// backward pass's weight gradient: U = dout (K×out), V = x (K×in), so
// that ∇W = Uᵀ·V. The factors are deep-copied and safe to ship.
func (f *FC) SufficientFactor() *tensor.SufficientFactor {
	sf := f.BorrowSufficientFactor()
	return &tensor.SufficientFactor{U: sf.U.Clone(), V: sf.V.Clone()}
}

// BorrowSufficientFactor is SufficientFactor without the deep copy: the
// returned factor references the backward pass's live buffers — U is the
// dout buffer this layer's Backward consumed, V the output buffer of the
// layer below (or the input batch) — through a shared wrapper struct.
// During a streaming pass it may be taken from the moment the layer's
// completion callback fires: nothing in the rest of that pass reads U
// again (so the comm runtime may scale it in place) and nothing writes
// V. Both die at the network's next pass, or the next Borrow. Callers
// that retain the factor must Clone it.
func (f *FC) BorrowSufficientFactor() *tensor.SufficientFactor {
	if f.lastDout == nil || f.lastX == nil {
		panic("autodiff: SufficientFactor before backward")
	}
	f.borrowedSF.U, f.borrowedSF.V = f.lastDout, f.lastX
	return &f.borrowedSF
}

// ---- Convolution -----------------------------------------------------------

// Conv2D is a naive direct convolution over C×H×W inputs flattened
// row-major as (c*H+h)*W+w.
type Conv2D struct {
	LayerName            string
	InC, InH, InW        int
	OutC, K, Stride, Pad int
	OutH, OutW           int
	W, B                 *tensor.Matrix // W: OutC × (InC·K·K), B: 1×OutC
	GW, GB               *tensor.Matrix
}

// NewConv2D builds a conv layer with He initialization.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("autodiff: conv %s output %dx%d", name, outH, outW))
	}
	c := &Conv2D{
		LayerName: name,
		InC:       inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		W:  tensor.NewMatrix(outC, inC*k*k),
		B:  tensor.NewMatrix(1, outC),
		GW: tensor.NewMatrix(outC, inC*k*k),
		GB: tensor.NewMatrix(1, outC),
	}
	c.W.Randn(rng, math.Sqrt(2.0/float64(inC*k*k)))
	return c
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.LayerName }

func (c *Conv2D) inIdx(ch, h, w int) int  { return (ch*c.InH+h)*c.InW + w }
func (c *Conv2D) outIdx(ch, h, w int) int { return (ch*c.OutH+h)*c.OutW + w }

// Forward runs the direct convolution for every sample in the batch.
func (c *Conv2D) Forward(s *Scratch, x *tensor.Matrix) {
	y := &s.Out
	y.Resize(x.Rows, c.OutC*c.OutH*c.OutW)
	for n := 0; n < x.Rows; n++ {
		in := x.Row(n)
		out := y.Row(n)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Row(oc)
			bias := c.B.Data[oc]
			for oh := 0; oh < c.OutH; oh++ {
				for ow := 0; ow < c.OutW; ow++ {
					sum := bias
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.K; kh++ {
							ih := oh*c.Stride + kh - c.Pad
							if ih < 0 || ih >= c.InH {
								continue
							}
							for kw := 0; kw < c.K; kw++ {
								iw := ow*c.Stride + kw - c.Pad
								if iw < 0 || iw >= c.InW {
									continue
								}
								sum += wrow[(ic*c.K+kh)*c.K+kw] * in[c.inIdx(ic, ih, iw)]
							}
						}
					}
					out[c.outIdx(oc, oh, ow)] = sum
				}
			}
		}
	}
}

// window clips a K-wide kernel window whose first tap lands on input
// coordinate origin to [0, limit): taps [lo, hi) are inside (none when
// the whole window is padding).
func (c *Conv2D) window(origin, limit int) (lo, hi int) {
	lo, hi = 0, c.K
	if origin < 0 {
		lo = -origin
	}
	if origin+hi > limit {
		hi = limit - origin
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Backward writes the weight and bias gradients in place and, when
// asked, dx. Every gradient cell receives its contributions in the
// (sample, oc, oh, ow) order of the loop nest, whether or not dx is
// produced.
func (c *Conv2D) Backward(s *Scratch, x, dout *tensor.Matrix, needDX bool) {
	c.GW.Zero()
	c.GB.Zero()
	if needDX {
		s.DX.Resize(dout.Rows, c.InC*c.InH*c.InW)
		s.DX.Zero()
	}
	for n := 0; n < dout.Rows; n++ {
		dOut := dout.Row(n)
		in := x.Row(n)
		var dIn []float32
		if needDX {
			dIn = s.DX.Row(n)
		}
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Row(oc)
			gwrow := c.GW.Row(oc)
			for oh := 0; oh < c.OutH; oh++ {
				ih0 := oh*c.Stride - c.Pad
				khLo, khHi := c.window(ih0, c.InH)
				for ow := 0; ow < c.OutW; ow++ {
					g := dOut[c.outIdx(oc, oh, ow)]
					if g == 0 {
						continue
					}
					c.GB.Data[oc] += g
					iw0 := ow*c.Stride - c.Pad
					kwLo, kwHi := c.window(iw0, c.InW)
					for ic := 0; ic < c.InC; ic++ {
						for kh := khLo; kh < khHi; kh++ {
							wOff := (ic*c.K + kh) * c.K
							iOff := c.inIdx(ic, ih0+kh, iw0)
							xs := in[iOff+kwLo : iOff+kwHi]
							gw := gwrow[wOff+kwLo : wOff+kwHi]
							for j, v := range xs {
								gw[j] += g * v
							}
							if dIn == nil {
								continue
							}
							di := dIn[iOff+kwLo : iOff+kwHi]
							for j, wv := range wrow[wOff+kwLo : wOff+kwHi] {
								di[j] += g * wv
							}
						}
					}
				}
			}
		}
	}
}

// Params returns [W, B].
func (c *Conv2D) Params() []*tensor.Matrix { return []*tensor.Matrix{c.W, c.B} }

// Grads returns [GW, GB].
func (c *Conv2D) Grads() []*tensor.Matrix { return []*tensor.Matrix{c.GW, c.GB} }

// ---- ReLU -------------------------------------------------------------------

// ReLU is an elementwise max(0, x).
type ReLU struct {
	LayerName string
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.LayerName }

// Forward zeroes negatives.
func (r *ReLU) Forward(s *Scratch, x *tensor.Matrix) {
	s.Out.Resize(x.Rows, x.Cols)
	y := s.Out.Data
	for i, v := range x.Data {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

// Backward gates the upstream gradient by the activation: the output is
// positive exactly where the input was, so it is its own mask.
func (r *ReLU) Backward(s *Scratch, _, dout *tensor.Matrix, needDX bool) {
	if !needDX {
		return
	}
	s.DX.Resize(dout.Rows, dout.Cols)
	dx := s.DX.Data
	for i, y := range s.Out.Data {
		if y > 0 {
			dx[i] = dout.Data[i]
		} else {
			dx[i] = 0
		}
	}
}

// Params returns no parameters.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads returns no gradients.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }

// ---- Max pooling -------------------------------------------------------------

// MaxPool2 is 2×2 max pooling with stride 2 over C×H×W volumes.
type MaxPool2 struct {
	LayerName string
	C, H, W   int
}

// NewMaxPool2 creates the pool; H and W must be even.
func NewMaxPool2(name string, c, h, w int) *MaxPool2 {
	if h%2 != 0 || w%2 != 0 {
		panic("autodiff: MaxPool2 needs even spatial dims")
	}
	return &MaxPool2{LayerName: name, C: c, H: h, W: w}
}

// Name returns the layer name.
func (p *MaxPool2) Name() string { return p.LayerName }

// Forward keeps each 2×2 window's maximum and records where it was.
func (p *MaxPool2) Forward(s *Scratch, x *tensor.Matrix) {
	oh, ow := p.H/2, p.W/2
	cells := p.C * oh * ow
	s.Out.Resize(x.Rows, cells)
	if cap(s.argmax) < x.Rows*cells {
		s.argmax = make([]int, x.Rows*cells)
	}
	s.argmax = s.argmax[:x.Rows*cells]
	for n := 0; n < x.Rows; n++ {
		in := x.Row(n)
		out := s.Out.Row(n)
		argmax := s.argmax[n*cells : (n+1)*cells]
		for c := 0; c < p.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for di := 0; di < 2; di++ {
						for dj := 0; dj < 2; dj++ {
							idx := (c*p.H+2*i+di)*p.W + 2*j + dj
							if in[idx] > best {
								best = in[idx]
								bestIdx = idx
							}
						}
					}
					oIdx := (c*oh+i)*ow + j
					out[oIdx] = best
					argmax[oIdx] = bestIdx
				}
			}
		}
	}
}

// Backward routes each gradient to the window's argmax.
func (p *MaxPool2) Backward(s *Scratch, _, dout *tensor.Matrix, needDX bool) {
	if !needDX {
		return
	}
	s.DX.Resize(dout.Rows, p.C*p.H*p.W)
	s.DX.Zero()
	cells := dout.Cols
	for n := 0; n < dout.Rows; n++ {
		dIn := s.DX.Row(n)
		argmax := s.argmax[n*cells : (n+1)*cells]
		for k, g := range dout.Row(n) {
			dIn[argmax[k]] += g
		}
	}
}

// Params returns no parameters.
func (p *MaxPool2) Params() []*tensor.Matrix { return nil }

// Grads returns no gradients.
func (p *MaxPool2) Grads() []*tensor.Matrix { return nil }
