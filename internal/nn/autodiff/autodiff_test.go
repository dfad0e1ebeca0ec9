package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGrad estimates dLoss/dparam[i] by central differences.
func numericGrad(net *Network, x *tensor.Matrix, labels []int, p *tensor.Matrix, i int) float64 {
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, _ := net.Eval(x, labels)
	p.Data[i] = orig - eps
	lm, _ := net.Eval(x, labels)
	p.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func checkGradients(t *testing.T, net *Network, in int, batch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewMatrix(batch, in)
	x.Randn(rng, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(net.Classes)
	}
	net.ZeroGrads()
	net.LossAndGrad(x, labels)
	params, grads := net.Params(), net.Grads()
	for pi, p := range params {
		// Spot-check a few entries per tensor.
		for _, idx := range []int{0, p.NumParams() / 2, p.NumParams() - 1} {
			want := numericGrad(net, x, labels, p, idx)
			got := float64(grads[pi].Data[idx])
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: analytic %.5f vs numeric %.5f", pi, idx, got, want)
			}
		}
	}
}

// The definitive autodiff test: analytic gradients match numeric ones.
func TestMLPGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := MLPNet(6, []int{5}, 3, rng)
	checkGradients(t, net, 6, 4, 2)
}

func TestConvNetGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, c, h, w := CIFARQuickNet(4, 4, rng) // 8×8 inputs for speed
	checkGradients(t, net, c*h*w, 3, 4)
}

func TestSoftmaxCrossEntropyBasics(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float32{10, 0, 0, 0, 10, 0})
	probs, loss, errs := SoftmaxCrossEntropy(logits, []int{0, 1})
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if loss > 0.01 {
		t.Fatalf("confident correct predictions should have tiny loss: %v", loss)
	}
	if probs.At(0, 0) < 0.99 {
		t.Fatalf("prob = %v", probs.At(0, 0))
	}
	_, _, errs = SoftmaxCrossEntropy(logits, []int{1, 0})
	if errs != 2 {
		t.Fatalf("errs = %d, want 2", errs)
	}
	// Row sums to 1.
	var sum float32
	for _, v := range probs.Row(0) {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("probs don't sum to 1: %v", sum)
	}
}

// FC sufficient factors must reconstruct the exact weight gradient.
func TestFCSufficientFactorMatchesGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fc := NewFC("fc", 7, 4, rng)
	x := tensor.NewMatrix(5, 7)
	x.Randn(rng, 1)
	var s Scratch
	fc.Forward(&s, x)
	dout := tensor.NewMatrix(s.Out.Rows, s.Out.Cols)
	dout.Randn(rng, 1)
	fc.Backward(&s, x, dout, true)
	sf := fc.SufficientFactor()
	if !sf.Reconstruct().ApproxEqual(fc.GW, 1e-4) {
		t.Fatal("SF reconstruction != GW")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice(1, 4, []float32{-1, 2, 0, 3})
	var s Scratch
	r.Forward(&s, x)
	want := []float32{0, 2, 0, 3}
	for i, v := range s.Out.Data {
		if v != want[i] {
			t.Fatalf("forward[%d] = %v", i, v)
		}
	}
	r.Backward(&s, x, tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}), true)
	wantDx := []float32{0, 1, 0, 1}
	for i, v := range s.DX.Data {
		if v != wantDx[i] {
			t.Fatalf("backward[%d] = %v", i, v)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2("p", 1, 2, 2)
	x := tensor.FromSlice(1, 4, []float32{1, 5, 3, 2})
	var s Scratch
	p.Forward(&s, x)
	if s.Out.Cols != 1 || s.Out.Data[0] != 5 {
		t.Fatalf("pool forward = %v", s.Out.Data)
	}
	p.Backward(&s, x, tensor.FromSlice(1, 1, []float32{7}), true)
	want := []float32{0, 7, 0, 0}
	for i, v := range s.DX.Data {
		if v != want[i] {
			t.Fatalf("pool backward[%d] = %v", i, v)
		}
	}
}

// Training on a trivially separable problem must drive the loss down —
// the end-to-end sanity check for the whole runtime.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := MLPNet(4, []int{16}, 2, rng)
	x := tensor.NewMatrix(32, 4)
	labels := make([]int, 32)
	for i := 0; i < 32; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < 4; j++ {
			x.Set(i, j, float32(rng.NormFloat64())*0.1+float32(cls)*2-1)
		}
	}
	first, _ := net.Eval(x, labels)
	for it := 0; it < 200; it++ {
		net.ZeroGrads()
		net.LossAndGrad(x, labels)
		net.SGDStep(0.1)
	}
	last, errRate := net.Eval(x, labels)
	if last > first/4 {
		t.Fatalf("loss %0.4f → %0.4f: did not train", first, last)
	}
	if errRate > 0.05 {
		t.Fatalf("error rate %.2f after training", errRate)
	}
}

func TestNumParamsAndNames(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := MLPNet(4, []int{8}, 2, rng)
	want := 4*8 + 8 + 8*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	for _, l := range net.Layers {
		if l.Name() == "" {
			t.Fatal("unnamed layer")
		}
	}
}

func TestConvOutputShapePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv2D("bad", 1, 2, 2, 1, 5, 1, 0, rng)
}
