package train

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn/autodiff"
	"repro/internal/transport"
)

// launchProbe is a mesh endpoint that shows every outbound frame to
// onSend before handing it to the real transport.
type launchProbe struct {
	transport.Mesh
	onSend func(transport.Message)
}

func (m *launchProbe) Send(to int, msg transport.Message) error {
	m.onSend(msg)
	return m.Mesh.Send(to, msg)
}

func (m *launchProbe) SendBatch(to int, msgs []transport.Message) error {
	for _, msg := range msgs {
		m.onSend(msg)
	}
	return m.Mesh.SendBatch(to, msgs)
}

// TestLaunchDuringBackward is wait-free backpropagation observed at the
// transport: in every iteration the top layer's first gradient frame
// (MsgPush on the PS route, MsgSF on SFB) reaches the mesh while the
// bottom layer's gradient does not exist yet, and the bottom layer's
// frames follow once it does. Sends are inline (Overlap off), so a frame
// reaches the mesh inside the callback that launched it, on the compute
// goroutine; the test poisons the bottom layer's bias gradient after
// each iteration and reads it back at those two moments.
func TestLaunchDuringBackward(t *testing.T) {
	const workers, iters = 2, 6
	const poison = float32(-777)
	// Params() order of mlp(16,[32],4): fc0.W, fc0.b, out.W, out.b.
	const bottomB, topW = 1, 2
	for _, mode := range []SyncMode{PSOnly, Hybrid} {
		meshes := transport.NewChanCluster(workers)
		type sighting struct{ topBeforeBottom, bottomAfterOwn bool }
		seen := make([]map[int]*sighting, workers) // rank → iteration → what the probe saw
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for r := 0; r < workers; r++ {
			r := r
			seen[r] = make(map[int]*sighting)
			var net *autodiff.Network
			poisoned := func() bool {
				for _, v := range net.Layers[0].Grads()[1].Data {
					if v != poison {
						return false
					}
				}
				return true
			}
			cfg := Config{
				Workers: workers, Iters: iters, Batch: 2, LR: 0.05, Mode: mode, Seed: 41,
				TrainSet: smallData(400, 64),
				BuildNet: func(rng *rand.Rand) *autodiff.Network {
					net = autodiff.MLPNet(16, []int{32}, 4, rng)
					return net
				},
				Progress: func(Point) { net.Layers[0].Grads()[1].Fill(poison) },
			}
			probe := &launchProbe{Mesh: meshes[r], onSend: func(msg transport.Message) {
				if msg.Type != transport.MsgPush && msg.Type != transport.MsgSF {
					return // server-role broadcasts leave from the receive goroutine
				}
				iter := int(msg.Iter)
				if iter == 0 {
					return // nothing poisoned the gradient before the first pass
				}
				switch int(msg.Layer) {
				case topW:
					if seen[r][iter] == nil {
						seen[r][iter] = &sighting{topBeforeBottom: poisoned()}
					}
				case bottomB:
					if s := seen[r][iter]; s != nil {
						s.bottomAfterOwn = !poisoned()
					}
				}
			}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = RunWorker(cfg, probe)
			}()
		}
		wg.Wait()
		meshes[0].Close()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("mode=%v rank %d: %v", mode, r, err)
			}
			for iter := 1; iter < iters; iter++ {
				s := seen[r][iter]
				switch {
				case s == nil:
					t.Fatalf("mode=%v rank %d iter %d: no top-layer gradient frame reached the mesh", mode, r, iter)
				case !s.topBeforeBottom:
					t.Fatalf("mode=%v rank %d iter %d: the top layer's first frame reached the mesh after the bottom layer's backward step", mode, r, iter)
				case !s.bottomAfterOwn:
					t.Fatalf("mode=%v rank %d iter %d: the bottom layer's frame did not follow the top layer's, or carried no fresh gradient", mode, r, iter)
				}
			}
		}
	}
}

// TestStreamingBorrowedFactors runs the SFB route the way the race pass
// needs to see it: every FC weight of a three-FC MLP travels as a
// borrowed factor whose V is the output buffer of the layer below and
// whose U the launch scales in place mid-backward, with sends pooled
// and, in the second run, the next pass free to overwrite those buffers
// while the previous iteration's frames are still in the pool. The BSP
// run must still equal large-batch SGD.
func TestStreamingBorrowedFactors(t *testing.T) {
	cfg := Config{
		Workers: 3, Iters: 10, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 43,
		Overlap: true, ChunkElems: 8,
		BuildNet: mlpBuilder(16, []int{32, 24}, 4),
		TrainSet: smallData(401, 240),
	}
	net := cfg.BuildNet(rand.New(rand.NewSource(cfg.Seed)))
	plans, err := buildPlans(cfg, net, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range fcWeights(net) {
		if plans[idx].Route != comm.RouteSFB {
			t.Fatalf("FC weight %d (%s) planned onto %v, want every FC weight on SFB", idx, plans[idx].Name, plans[idx].Route)
		}
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxParamDiff(res.Final, singleWorkerReference(t, cfg)); d > 1e-3 {
		t.Fatalf("streamed SFB run differs from large-batch SGD by %g", d)
	}

	cfg.Staleness = 2
	if _, err := Run(cfg); err != nil {
		t.Fatalf("staleness 2: %v", err)
	}
}

// fcName used to build names from a rune offset, so the eleventh hidden
// layer was "fc:" and the twelfth "fc;"; parameter names feed plans,
// metrics and route overrides and must be unique and readable.
func TestParamSpecNamesUniqueOnDeepMLP(t *testing.T) {
	hidden := make([]int, 12)
	for i := range hidden {
		hidden[i] = 4
	}
	net := autodiff.MLPNet(4, hidden, 2, rand.New(rand.NewSource(1)))
	specs := ParamSpecs(net)
	if want := 2 * (len(hidden) + 1); len(specs) != want {
		t.Fatalf("%d specs, want %d", len(specs), want)
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate parameter name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"fc0.W", "fc9.b", "fc10.W", "fc11.b", "out.W"} {
		if !seen[want] {
			t.Fatalf("no parameter named %q among %v", want, specs)
		}
	}
	layers := make(map[string]bool)
	for _, l := range net.Layers {
		if layers[l.Name()] {
			t.Fatalf("duplicate layer name %q", l.Name())
		}
		layers[l.Name()] = true
	}
}
