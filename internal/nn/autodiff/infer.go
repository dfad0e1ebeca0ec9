package autodiff

import "repro/internal/tensor"

// Predictor runs forward passes over a network through a workspace of
// its own: the same layer code as training, with no per-call
// allocations once the workspace has warmed up to the largest batch
// seen, and without touching the network's training state. Any number
// of Predictors may share one Network.
//
// A Predictor is not safe for concurrent use; callers that serve
// concurrently pool one per in-flight forward pass.
type Predictor struct {
	net *Network
	ws  *workspace
}

// NewPredictor wraps net for inference. The network's parameters stay
// shared with net — loading new values into net.Params() changes what
// the predictor serves.
func NewPredictor(net *Network) *Predictor {
	return &Predictor{net: net, ws: newWorkspace(net.Layers)}
}

// Net exposes the predictor's replica so snapshot parameters can be
// loaded into it.
func (p *Predictor) Net() *Network { return p.net }

// Forward returns the logits for a batch. The result is the
// predictor's own scratch, valid only until the next Forward.
func (p *Predictor) Forward(x *tensor.Matrix) *tensor.Matrix {
	return p.ws.forward(p.net.Layers, x)
}
