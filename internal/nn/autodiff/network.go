package autodiff

import (
	"math"
	"math/rand"
	"strconv"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers with a softmax cross-entropy
// head.
type Network struct {
	Layers  []Layer
	Classes int

	// ws is the network's one workspace: Forward, Eval and LossAndGrad
	// all run through it, so a Network serves one goroutine at a time.
	// Concurrent inference goes through Predictors, which bring their own.
	ws *workspace
}

// workspace is the per-pass state of a layer stack: one Scratch per
// layer, plus the softmax head's probabilities, which the backward pass
// turns into dL/dlogits in place.
type workspace struct {
	bufs  []Scratch
	probs tensor.Matrix
	// trainable[i] reports whether layer i has parameters, looked up once
	// because Params() allocates its result.
	trainable []bool
}

func newWorkspace(layers []Layer) *workspace {
	ws := &workspace{bufs: make([]Scratch, len(layers)), trainable: make([]bool, len(layers))}
	for i, l := range layers {
		ws.trainable[i] = len(l.Params()) > 0
	}
	return ws
}

// forward runs the stack through the workspace and returns the last
// layer's output buffer.
func (ws *workspace) forward(layers []Layer, x *tensor.Matrix) *tensor.Matrix {
	for i, l := range layers {
		l.Forward(&ws.bufs[i], x)
		x = &ws.bufs[i].Out
	}
	return x
}

func (n *Network) workspace() *workspace {
	if n.ws == nil || len(n.ws.bufs) != len(n.Layers) {
		n.ws = newWorkspace(n.Layers)
	}
	return n.ws
}

// Forward runs the stack and returns the logits: the workspace's own
// buffer, valid until the network's next pass.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	return n.workspace().forward(n.Layers, x)
}

// InputDims returns the flattened feature count the network's first
// layer consumes (the required column count of a Forward batch), or -1
// when it cannot be derived from the layer kind.
func (n *Network) InputDims() int {
	if len(n.Layers) == 0 {
		return -1
	}
	switch l := n.Layers[0].(type) {
	case *Conv2D:
		return l.InC * l.InH * l.InW
	case *FC:
		return l.W.Cols
	default:
		return -1
	}
}

// LossAndGrad runs forward + softmax cross-entropy + full backward for a
// batch with integer labels, overwriting every parameter gradient (mean
// over the batch). It returns the mean loss and the error count.
func (n *Network) LossAndGrad(x *tensor.Matrix, labels []int) (loss float64, errs int) {
	return n.LossAndGradStream(x, labels, nil)
}

// LossAndGradStream is LossAndGrad reporting progress: the backward pass
// walks the stack top-down and calls done(i) the moment layer i's
// Grads() are final, once per layer that has parameters — the hook that
// lets a layer's synchronization start while the layers below it are
// still computing (the paper's Algorithm 2). done runs on the caller's
// goroutine, between two layers' backward steps; see
// FC.BorrowSufficientFactor for what it may touch. The first layer's
// input gradient is never computed: nothing consumes it.
func (n *Network) LossAndGradStream(x *tensor.Matrix, labels []int, done func(layer int)) (loss float64, errs int) {
	ws := n.workspace()
	logits := ws.forward(n.Layers, x)
	loss, errs = softmaxCrossEntropyInto(&ws.probs, logits, labels)
	// dL/dlogits = (probs - onehot)/K.
	k := float32(x.Rows)
	dout := &ws.probs
	for i := 0; i < dout.Rows; i++ {
		row := dout.Row(i)
		row[labels[i]] -= 1
		for j := range row {
			row[j] /= k
		}
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		in := x
		if i > 0 {
			in = &ws.bufs[i-1].Out
		}
		n.Layers[i].Backward(&ws.bufs[i], in, dout, i > 0)
		if done != nil && ws.trainable[i] {
			done(i)
		}
		dout = &ws.bufs[i].DX
	}
	return loss, errs
}

// Eval returns the mean loss and error rate on a batch without touching
// gradients.
func (n *Network) Eval(x *tensor.Matrix, labels []int) (loss float64, errRate float64) {
	ws := n.workspace()
	l, e := softmaxCrossEntropyInto(&ws.probs, ws.forward(n.Layers, x), labels)
	return l, float64(e) / float64(x.Rows)
}

// ZeroGrads clears every gradient. A pass overwrites them anyway; this
// is for callers that read gradients before the first pass.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// Params returns all trainable tensors in layer order.
func (n *Network) Params() []*tensor.Matrix {
	var ps []*tensor.Matrix
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradients in the same order as Params.
func (n *Network) Grads() []*tensor.Matrix {
	var gs []*tensor.Matrix
	for _, l := range n.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// SGDStep applies θ -= lr·∇θ to every parameter.
func (n *Network) SGDStep(lr float32) {
	ps, gs := n.Params(), n.Grads()
	for i := range ps {
		ps[i].AXPY(-lr, gs[i])
	}
}

// NumParams counts trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.NumParams()
	}
	return total
}

// SoftmaxCrossEntropy computes row-wise softmax probabilities, the mean
// cross-entropy loss, and the argmax error count.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (probs *tensor.Matrix, loss float64, errs int) {
	probs = new(tensor.Matrix)
	loss, errs = softmaxCrossEntropyInto(probs, logits, labels)
	return probs, loss, errs
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy into a caller-owned
// probability matrix, resized to match.
func softmaxCrossEntropyInto(probs, logits *tensor.Matrix, labels []int) (loss float64, errs int) {
	probs.Resize(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		out := probs.Row(i)
		if softmaxRow(out, logits.Row(i)) != labels[i] {
			errs++
		}
		p := float64(out[labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	loss /= float64(logits.Rows)
	return loss, errs
}

// SoftmaxInto writes the row-wise softmax of logits into dst, resized
// to match — the arithmetic of SoftmaxCrossEntropy, so served
// probabilities are bit-identical to what training-side evaluation
// computes from the same logits.
func SoftmaxInto(dst, logits *tensor.Matrix) {
	dst.Resize(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		softmaxRow(dst.Row(i), logits.Row(i))
	}
}

// softmaxRow writes softmax(row) into out (float64 exp and division,
// truncated to float32 per term) and returns row's argmax.
func softmaxRow(out, row []float32) (arg int) {
	max := row[0]
	for j, v := range row {
		if v > max {
			max = v
			arg = j
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - max))
		out[j] = float32(e)
		sum += e
	}
	for j := range out {
		out[j] = float32(float64(out[j]) / sum)
	}
	return arg
}

// CIFARQuickNet builds a scaled replica of Caffe's CIFAR-10-quick CNN:
// three 5×5 conv + pool stages followed by two FC layers. scale divides
// the spatial resolution (scale=1 → 32×32 inputs, the real network;
// scale=2 → 16×16; scale=4 → 8×8 for fast tests). The layer recipe and
// the conv/FC split match the paper's Fig. 11 workload.
func CIFARQuickNet(scale int, classes int, rng *rand.Rand) (*Network, int, int, int) {
	if scale < 1 {
		scale = 1
	}
	h := 32 / scale
	const inC = 3
	conv1 := NewConv2D("conv1", inC, h, h, 16, 5, 1, 2, rng)
	pool1 := NewMaxPool2("pool1", 16, h, h)
	conv2 := NewConv2D("conv2", 16, h/2, h/2, 16, 5, 1, 2, rng)
	pool2 := NewMaxPool2("pool2", 16, h/2, h/2)
	flat := 16 * (h / 4) * (h / 4)
	ip1 := NewFC("ip1", flat, 32, rng)
	ip2 := NewFC("ip2", 32, classes, rng)
	net := &Network{
		Layers: []Layer{
			conv1, NewReLU("relu1"), pool1,
			conv2, NewReLU("relu2"), pool2,
			ip1, NewReLU("relu3"),
			ip2,
		},
		Classes: classes,
	}
	return net, inC, h, h
}

// MLPNet builds a small all-FC network (every layer SF-capable), used by
// the trainer's SFB correctness tests and the quickstart example.
func MLPNet(in int, hidden []int, classes int, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for i, hdim := range hidden {
		layers = append(layers, NewFC("fc"+strconv.Itoa(i), prev, hdim, rng), NewReLU("relu"+strconv.Itoa(i)))
		prev = hdim
	}
	layers = append(layers, NewFC("out", prev, classes, rng))
	return &Network{Layers: layers, Classes: classes}
}
