package autodiff

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// streamNets builds the two reference architectures from a seed, so two
// calls with the same seed yield identical replicas.
func streamNets(seed int64) map[string]*Network {
	cifar, _, _, _ := CIFARQuickNet(4, 10, rand.New(rand.NewSource(seed)))
	return map[string]*Network{
		"mlp":        MLPNet(16, []int{32, 8}, 4, rand.New(rand.NewSource(seed))),
		"cifarquick": cifar,
	}
}

func labelsFor(rng *rand.Rand, rows, classes int) []int {
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return labels
}

func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// TestLossAndGradStreamOrder pins the streaming contract: the callback
// fires once per layer that has parameters, top-down, and at that moment
// the layer's gradients already hold exactly what a plain LossAndGrad
// leaves on an identically seeded net — while the layers below have not
// been touched yet.
func TestLossAndGradStreamOrder(t *testing.T) {
	plain, streamed := streamNets(5), streamNets(5)
	for name, net := range streamed {
		ref := plain[name]
		rng := rand.New(rand.NewSource(9))
		x := randBatch(rng, 6, net.InputDims())
		labels := labelsFor(rng, 6, net.Classes)

		wantLoss, wantErrs := ref.LossAndGrad(x, labels)

		// Poison every gradient: a layer whose callback has not fired yet
		// must still hold the poison, one whose callback fires must not.
		const poison = float32(-12345)
		for _, g := range net.Grads() {
			g.Fill(poison)
		}
		var fired []int
		loss, errs := net.LossAndGradStream(x, labels, func(layer int) {
			fired = append(fired, layer)
			for pi, g := range net.Layers[layer].Grads() {
				if !sameBits(g, ref.Layers[layer].Grads()[pi]) {
					t.Errorf("%s: layer %d grad %d differs from the plain pass when its callback fires", name, layer, pi)
				}
			}
			for below := 0; below < layer; below++ {
				for pi, g := range net.Layers[below].Grads() {
					if g.Data[0] != poison {
						t.Errorf("%s: layer %d grad %d already written when layer %d's callback fires", name, below, pi, layer)
					}
				}
			}
		})
		if loss != wantLoss || errs != wantErrs {
			t.Errorf("%s: streamed pass returned (%g, %d), plain (%g, %d)", name, loss, errs, wantLoss, wantErrs)
		}

		var want []int
		for i := len(net.Layers) - 1; i >= 0; i-- {
			if len(net.Layers[i].Params()) > 0 {
				want = append(want, i)
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("%s: callback fired for layers %v, want %v", name, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("%s: callback fired for layers %v, want %v", name, fired, want)
			}
		}
	}
}

// TestLossAndGradSteadyStateAllocs pins the property the training
// step's allocation budget rests on: after one warm-up call sizes the
// workspace, a pass allocates nothing.
func TestLossAndGradSteadyStateAllocs(t *testing.T) {
	for name, net := range streamNets(6) {
		rng := rand.New(rand.NewSource(10))
		x := randBatch(rng, 8, net.InputDims())
		labels := labelsFor(rng, 8, net.Classes)
		net.LossAndGrad(x, labels)
		if allocs := testing.AllocsPerRun(10, func() { net.LossAndGrad(x, labels) }); allocs != 0 {
			t.Errorf("%s: steady-state LossAndGrad allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestFirstLayerSkipsInputGradient checks that a pass never produces
// layer 0's input gradient, and that skipping it leaves a layer's
// parameter gradients bit-identical to a backward step that does
// produce it. (The numeric checks above run the same skipping pass.)
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	for name, net := range streamNets(7) {
		rng := rand.New(rand.NewSource(11))
		x := randBatch(rng, 5, net.InputDims())
		net.LossAndGrad(x, labelsFor(rng, 5, net.Classes))
		if dx := &net.ws.bufs[0].DX; dx.Rows != 0 || len(dx.Data) != 0 {
			t.Errorf("%s: layer 0 produced a %dx%d input gradient", name, dx.Rows, dx.Cols)
		}

		first := net.Layers[0]
		var s Scratch
		first.Forward(&s, x)
		dout := randBatch(rng, s.Out.Rows, s.Out.Cols)
		first.Backward(&s, x, dout, true)
		var with []*tensor.Matrix
		for _, g := range first.Grads() {
			with = append(with, g.Clone())
		}
		if s.DX.Rows != x.Rows || s.DX.Cols != x.Cols {
			t.Fatalf("%s: asked-for input gradient is %dx%d, want %dx%d", name, s.DX.Rows, s.DX.Cols, x.Rows, x.Cols)
		}
		first.Backward(&s, x, dout, false)
		for pi, g := range first.Grads() {
			if !sameBits(g, with[pi]) {
				t.Errorf("%s: layer 0 grad %d changes when the input gradient is skipped", name, pi)
			}
		}
	}
}

// TestFactorOnlySkipsDenseGradient: an FC whose weight travels as a
// sufficient factor leaves GW alone, still produces the bias and input
// gradients, and its factor reconstructs what the dense pass computes.
func TestFactorOnlySkipsDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dense := NewFC("fc", 7, 4, rand.New(rand.NewSource(13)))
	lean := NewFC("fc", 7, 4, rand.New(rand.NewSource(13)))
	lean.FactorOnly = true
	x := randBatch(rng, 5, 7)
	dout := randBatch(rng, 5, 4)

	var ds, ls Scratch
	dense.Forward(&ds, x)
	dense.Backward(&ds, x, dout, true)
	const stale = float32(42)
	lean.GW.Fill(stale)
	lean.Forward(&ls, x)
	lean.Backward(&ls, x, dout, true)

	for _, v := range lean.GW.Data {
		if v != stale {
			t.Fatal("FactorOnly backward wrote the dense weight gradient")
		}
	}
	if !sameBits(lean.GB, dense.GB) || !sameBits(&ls.DX, &ds.DX) {
		t.Fatal("FactorOnly changed the bias or input gradient")
	}
	if !lean.SufficientFactor().Reconstruct().ApproxEqual(dense.GW, 1e-5) {
		t.Fatal("FactorOnly factor does not reconstruct the dense gradient")
	}
}

// TestBorrowedFactorAliasesPassBuffers pins what a borrowed sufficient
// factor references when a layer's completion callback fires — the
// lifetime contract the comm runtime's in-place scaling relies on: V is
// the output buffer of the layer below, U the dout buffer this layer's
// backward step consumed, which no later step of the pass reads.
func TestBorrowedFactorAliasesPassBuffers(t *testing.T) {
	net := MLPNet(16, []int{32, 8}, 4, rand.New(rand.NewSource(14)))
	rng := rand.New(rand.NewSource(15))
	x := randBatch(rng, 6, 16)
	labels := labelsFor(rng, 6, 4)
	ref := MLPNet(16, []int{32, 8}, 4, rand.New(rand.NewSource(14)))
	ref.LossAndGrad(x, labels)

	top := len(net.Layers) - 1
	net.LossAndGradStream(x, labels, func(layer int) {
		sf := net.Layers[layer].(*FC).BorrowSufficientFactor()
		wantV, wantU := x, &net.ws.probs
		if layer > 0 {
			wantV = &net.ws.bufs[layer-1].Out
		}
		if layer < top {
			wantU = &net.ws.bufs[layer+1].DX
		}
		if sf.V != wantV || sf.U != wantU {
			t.Errorf("layer %d: borrowed factor does not alias the pass buffers", layer)
		}
		// What the SFB launch does mid-backward: consume the factor, then
		// scale U in place. The layers below must not notice.
		sf.U.Scale(-0.5)
	})
	for i, g := range net.Grads() {
		if !sameBits(g, ref.Grads()[i]) {
			t.Errorf("grad %d changed when the callback scaled U in place", i)
		}
	}
}
