package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fleet"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/nn/autodiff"
	"repro/internal/rate"
	"repro/internal/serve"
	"repro/internal/sfb"
	"repro/internal/snapshot"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/transport"
	"repro/poseidon"
)

// isolatedLayers is the pseudo-workload name under which a child process
// runs the drivers below instead of a segment.
const isolatedLayers = "isolated-layers"

// driverRepeats is how often each driver's fixed batch of calls is
// timed; the best repeat is reported, for the same reason a run reports
// its best window.
const driverRepeats = 5

// layerDrivers times calls into each layer's exported functions at the
// workloads' own shapes and collects the results by metric name.
type layerDrivers struct {
	repeats int
	out     map[string]float64
}

// calls is how many times best(calls, fn) invokes fn.
func (d *layerDrivers) calls(calls int) int { return 1 + d.repeats*calls }

// best times `calls` invocations of fn, d.repeats times, and returns the
// best repeat's seconds per call.
func (d *layerDrivers) best(calls int, fn func()) float64 {
	fn() // warm caches and pools outside the timing
	best := 0.0
	for r := 0; r < d.repeats; r++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(start).Seconds() / float64(calls); r == 0 || d < best {
			best = d
		}
	}
	return best
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.Randn(rng, 1)
	return m
}

// runLayerDrivers runs every driver. One that cannot run reports 0 and
// says why on stderr; the numbers carry no bound.
func runLayerDrivers(scratch string, repeats int) map[string]float64 {
	if repeats <= 0 {
		repeats = driverRepeats
	}
	d := &layerDrivers{repeats: repeats, out: make(map[string]float64)}
	out := d.out
	rng := rand.New(rand.NewSource(1))
	const batch, in, hid = 8, 1024, 768

	// tensor: the three GEMM forms of fcNet's widest layer.
	x := randMatrix(rng, batch, in)
	wMat := randMatrix(rng, in, hid)
	dout := randMatrix(rng, batch, hid)
	y := tensor.NewMatrix(batch, hid)
	gw := tensor.NewMatrix(in, hid)
	dx := tensor.NewMatrix(batch, in)
	gflop := 2.0 * batch * in * hid / 1e9
	out["tensor.mul_gflops"] = gflop / d.best(8, func() { tensor.MulInto(y, x, wMat) })
	out["tensor.mul_transa_gflops"] = gflop / d.best(8, func() { tensor.MulTransAInto(gw, x, dout) })
	out["tensor.mul_transb_gflops"] = gflop / d.best(8, func() { tensor.MulTransBInto(dx, dout, wMat) })

	sf := tensor.NewSufficientFactor(batch, in, hid)
	sf.U.Randn(rng, 1)
	sf.V.Randn(rng, 1)
	out["tensor.sf_reconstruct_ms"] = 1e3 * d.best(8, func() { gw.Zero(); sf.ReconstructInto(gw) })

	chunk := randMatrix(rng, 1, chunkElems)
	chunkMB := float64(tensor.MatrixWireBytes(1, chunkElems)) / 1e6
	var wire []byte
	out["tensor.encode_mb_s"] = chunkMB / d.best(100, func() { wire = tensor.AppendMatrix(wire[:0], chunk) })
	decoded := new(tensor.Matrix)
	out["tensor.decode_mb_s"] = chunkMB / d.best(100, func() {
		if _, err := tensor.DecodeMatrixInto(decoded, wire); err != nil {
			panic(err)
		}
	})

	// autodiff: one forward+backward of each training model.
	fc := fcNet(rand.New(rand.NewSource(1)))
	fcSet := data.Synthetic(1, 64, 10, 1, 32, 32, 0.5)
	fx, fl := fcSet.Batch(0, batch)
	out["autodiff.fc_step_ms"] = 1e3 * d.best(3, func() { fc.ZeroGrads(); fc.LossAndGrad(fx, fl) })
	conv := convNet(rand.New(rand.NewSource(1)))
	convSet := data.Synthetic(1, 64, 10, 3, 16, 16, 0.5)
	cx, cl := convSet.Batch(0, 16)
	out["autodiff.conv_step_ms"] = 1e3 * d.best(3, func() { conv.ZeroGrads(); conv.LossAndGrad(cx, cl) })
	out["data.batch_us"] = 1e6 * d.best(500, func() { convSet.Batch(16, 16) })

	// sfb: both workers' factors offered, the second completing the round.
	agg := sfb.NewAggregator(workers, in, hid)
	var round int64
	out["sfb.offer_ms"] = 1e3 * d.best(4, func() {
		round++
		for worker := 0; worker < workers; worker++ {
			if _, err := agg.OfferInto(round, worker, sf, gw); err != nil {
				panic(err)
			}
		}
	})

	// kvstore: both workers' pushes of one chunk, the second folding it.
	shard := kvstore.NewShard(workers)
	shard.Init("chunk", chunk.Data)
	var fresh []float32
	kvRound := 0
	out["kvstore.fold_mb_s"] = workers * chunkMB / d.best(50, func() {
		kvRound++
		for worker := 0; worker < workers; worker++ {
			var err error
			if fresh, _, err = shard.PushRoundInto("chunk", kvRound, worker, chunk.Data, fresh[:0]); err != nil {
				panic(err)
			}
		}
	})

	for route, mode := range map[string]poseidon.SyncMode{"ps": poseidon.PSOnly, "sfb": poseidon.Hybrid} {
		ms, err := d.syncRoundMS(mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: comm.sync driver (%s): %v\n", route, err)
		}
		out["comm.sync_ms_per_round."+route] = ms
	}

	plannerCfg := train.Config{Workers: workers, Batch: batch, Mode: poseidon.Hybrid}
	specs := train.ParamSpecs(fc)
	out["poseidon.plan_us"] = 1e6 * d.best(200, func() {
		if _, err := train.PlannerFor(plannerCfg).ParamPlans(specs); err != nil {
			panic(err)
		}
	})

	if addrs, err := freeLoopbackAddrs(2); err != nil {
		fmt.Fprintln(os.Stderr, "bench: tcp driver:", err)
	} else if err := d.meshDrivers("tcp", func(rank int, onCopy func(int)) (transport.Mesh, error) {
		return transport.NewTCPMeshOpts(rank, addrs, transport.TCPOptions{OnCopy: onCopy})
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench: tcp driver:", err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench: shm driver:", err)
	} else if shmDir, err := os.MkdirTemp(scratch, "shm-driver-"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: shm driver:", err)
	} else {
		if err := d.meshDrivers("shm", func(rank int, onCopy func(int)) (transport.Mesh, error) {
			return transport.NewSHMMesh(rank, 2, transport.SHMOptions{Dir: shmDir, OnCopy: onCopy})
		}); err != nil {
			fmt.Fprintln(os.Stderr, "bench: shm driver:", err)
		}
		os.RemoveAll(shmDir)
	}
	delete(out, "transport.shm_copied_bytes_per_frame") // the ring is the copy by design

	d.serveDrivers()
	return out
}

// syncRoundMS times one synchronization round of fcNet's parameters
// between two routers over a channel mesh: LaunchAll then WaitFor on
// both ranks, the gradients and factors fixed, no compute in between.
func (d *layerDrivers) syncRoundMS(mode poseidon.SyncMode) (float64, error) {
	const rounds = 6
	total := d.calls(rounds)
	meshes := transport.NewChanCluster(workers)
	defer meshes[0].Close()
	routers := make([]*comm.Router, workers)
	grads := make([][]*tensor.Matrix, workers)
	for rank := range routers {
		net := fcNet(rand.New(rand.NewSource(1)))
		set := data.Synthetic(1, 64, 10, 1, 32, 32, 0.5)
		bx, bl := set.Batch(rank*8, 8)
		net.LossAndGrad(bx, bl)
		cfg := train.Config{Workers: workers, Batch: 8, Mode: mode}
		plans, err := train.PlannerFor(cfg).ParamPlans(train.ParamSpecs(net))
		if err != nil {
			return 0, err
		}
		idx := 0
		for _, layer := range net.Layers {
			fc, isFC := layer.(*autodiff.FC)
			for pi := range layer.Params() {
				if isFC && pi == 0 && plans[idx].Route == comm.RouteSFB {
					// Launch scales the factor's U in place; hand it a fresh
					// copy each round so the values do not decay to denormals.
					template := fc.SufficientFactor()
					scratch := template.Clone()
					plans[idx].SF = func() *tensor.SufficientFactor {
						scratch.CopyFrom(template)
						return scratch
					}
				}
				idx++
			}
		}
		r, err := comm.NewRouter(comm.Config{
			Mesh: meshes[rank], Plans: plans, Params: net.Params(),
			Scale: -learnRate / workers, Overlap: true, ChunkElems: chunkElems,
		})
		if err != nil {
			return 0, err
		}
		r.Start()
		defer r.Stop()
		routers[rank] = r
		grads[rank] = net.Grads()
	}

	// Rank 1 mirrors rank 0 round for round.
	errs := make(chan error, 1)
	go func() {
		for it := 0; it < total; it++ {
			routers[1].WaitFor(it)
			if err := routers[1].LaunchAll(it, grads[1]); err != nil {
				errs <- err
				return
			}
		}
		routers[1].WaitFor(total)
		errs <- routers[1].Err()
	}()
	it := 0
	var launchErr error
	perRound := d.best(rounds, func() {
		if launchErr == nil {
			launchErr = routers[0].LaunchAll(it, grads[0])
		}
		it++
		routers[0].WaitFor(it)
	})
	if launchErr != nil {
		return 0, launchErr
	}
	if err := <-errs; err != nil {
		return 0, err
	}
	return 1e3 * perRound, routers[0].Err()
}

// meshDrivers measures a two-node mesh of one transport, both ends in
// this process: 64 B round trips, and a one-way stream of 256 KiB frames
// closed by a one-frame acknowledgement.
func (d *layerDrivers) meshDrivers(kind string, dial func(rank int, onCopy func(int)) (transport.Mesh, error)) error {
	var copied atomic.Int64
	ends, err := dialAll(2, func(rank int) (transport.Mesh, error) {
		if rank != 0 {
			return dial(rank, nil)
		}
		return dial(rank, func(n int) { copied.Add(int64(n)) })
	})
	if err != nil {
		return err
	}

	const pings, frames, frameBytes = 200, 40, 256 << 10
	peerDone := make(chan struct{})
	go func() { // rank 1: echo every ping, acknowledge every `frames` pushes
		defer close(peerDone)
		pushes := 0
		for {
			msg, err := ends[1].Recv()
			if err != nil {
				return // the mesh closed under us: the driver is over
			}
			msg.ReleasePayload()
			if msg.Type == transport.MsgPush {
				if pushes++; pushes%frames != 0 {
					continue
				}
			}
			if ends[1].Send(0, transport.Message{Type: transport.MsgControl}) != nil {
				return
			}
		}
	}()
	defer func() {
		ends[0].Close()
		ends[1].Close()
		<-peerDone
	}()

	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	await := func() {
		msg, err := ends[0].Recv()
		note(err)
		msg.ReleasePayload()
	}
	small := make([]byte, 64)
	rtt := d.best(pings, func() {
		note(ends[0].Send(1, transport.Message{Type: transport.MsgControl, Payload: small}))
		await()
	})
	big := make([]byte, frameBytes)
	copied.Store(0)
	sent := 0
	stream := d.best(1, func() {
		for i := 0; i < frames; i++ {
			note(ends[0].Send(1, transport.Message{Type: transport.MsgPush, Payload: big}))
			sent++
		}
		await()
	})
	if firstErr != nil {
		return firstErr
	}
	out := d.out
	out["transport."+kind+"_rtt_us"] = 1e6 * rtt
	out["transport."+kind+"_mb_s"] = float64(frames*frameBytes) / 1e6 / stream
	out["transport."+kind+"_copied_bytes_per_frame"] = float64(copied.Load()) / float64(sent)
	return nil
}

// serveDrivers times the serving plane's layers on serve_open's model.
func (d *layerDrivers) serveDrivers() {
	out := d.out
	store := snapshot.NewStore(serveNet, 1)
	net := serveNet(rand.New(rand.NewSource(1)))
	version := 0
	out["snapshot.capture_ms"] = 1e3 * d.best(50, func() { version++; store.Capture(version, 0, net.Params()) })
	model := store.Latest()

	const rows = 16
	px := randMatrix(rand.New(rand.NewSource(2)), rows, model.Features())
	logits := tensor.NewMatrix(0, 0)
	out["snapshot.predict_us_per_row"] = 1e6 / rows * d.best(50, func() {
		if err := model.PredictInto(logits, px); err != nil {
			panic(err)
		}
	})
	encodedMB := float64(len(model.Encode())) / 1e6
	out["snapshot.encode_mb_s"] = encodedMB / d.best(20, func() { model.Encode() })

	bodies, err := makeServeBodies(1, model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: serve driver:", err)
		return
	}
	gw := serve.New(store, serve.Options{Metrics: metrics.NewComm()}) // 60 calls stay inside one tenant's burst of 100
	defer gw.Close()
	handler := gw.Handler()
	var lat []float64
	for i := 0; i < 60; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(bodies[i%len(bodies)].json))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "bench: serve driver: handler answered %d\n", rec.Code)
			return
		}
	}
	out["serve.handler_us_p50"] = percentile(lat[10:], 0.50)

	lim := rate.NewLimiter(1e9, 1e9) // a bucket the loop cannot drain: the allow path
	now := time.Now()
	out["rate.allow_ns"] = 1e9 * d.best(100000, func() { lim.AllowN(now, 1) })

	members := make([]string, 8)
	for i := range members {
		members[i] = "replica-" + strconv.Itoa(i)
	}
	ring := fleet.NewRing(members)
	key := 0
	out["fleet.ring_lookup_ns"] = 1e9 * d.best(100000, func() { key++; ring.Lookup("tenant-" + strconv.Itoa(key&63)) })

	pull := fleet.NewSnapshotHandler(store, nil)
	out["fleet.snapshot_pull_ms"] = 1e3 * d.best(20, func() {
		rec := httptest.NewRecorder()
		pull.ServeHTTP(rec, httptest.NewRequest("GET", fleet.SnapshotPath, nil))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("snapshot pull answered %d", rec.Code))
		}
	})
}
