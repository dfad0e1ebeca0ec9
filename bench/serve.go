package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/tensor"
)

// serveBody is one pre-generated request with what a correct answer
// looks like.
type serveBody struct {
	json   []byte
	labels []int // the model's own argmax per instance, from a local Predict
	truth  []int // the data set's label per instance
}

type predictReply struct {
	Predictions []struct {
		Label int       `json:"label"`
		Probs []float32 `json:"probs"`
	} `json:"predictions"`
}

// makeServeBodies draws the request pool from the seed and answers each
// request locally, so every reply can be checked against the snapshot's
// own forward pass.
func makeServeBodies(seed int64, model *snapshot.Model) ([]serveBody, error) {
	ds := data.Synthetic(seed, serveBodies*serveInstances, 10, 1, 16, 16, 0.5)
	bodies := make([]serveBody, serveBodies)
	for b := range bodies {
		x := tensor.NewMatrix(serveInstances, ds.X.Cols)
		rows := make([][]float32, serveInstances)
		truth := make([]int, serveInstances)
		for i := range rows {
			src := b*serveInstances + i
			copy(x.Row(i), ds.X.Row(src))
			rows[i] = ds.X.Row(src)
			truth[i] = ds.Labels[src]
		}
		logits, err := model.Predict(x)
		if err != nil {
			return nil, err
		}
		labels := make([]int, serveInstances)
		for i := range labels {
			row := logits.Row(i)
			for j, v := range row {
				if v > row[labels[i]] {
					labels[i] = j
				}
			}
		}
		buf, err := json.Marshal(struct {
			Instances [][]float32 `json:"instances"`
		}{rows})
		if err != nil {
			return nil, err
		}
		bodies[b] = serveBody{json: buf, labels: labels, truth: truth}
	}
	return bodies, nil
}

// dueTime is when request i of an open-loop schedule at rate per second
// is due, whatever happened to the requests before it.
func dueTime(t0 time.Time, i int, rate float64) time.Time {
	return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// request is the outcome of one scheduled request.
type request struct {
	due, sent, done time.Time
	cpu             time.Duration // the process's CPU time at sent
	err             error
	bytes           int
	correct         int     // instances answered with the model's own label
	nll             float64 // summed -log p(true label) over its instances
}

// tenantFloors enforces that a tenant never sees the served snapshot
// version go backwards: a reply must carry at least the highest version
// that tenant had already been answered with when the request was sent.
type tenantFloors struct {
	mu   sync.Mutex
	seen [serveTenants]int
}

func (f *tenantFloors) floor(t int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[t]
}

func (f *tenantFloors) observe(t, floor, iter int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if iter > f.seen[t] {
		f.seen[t] = iter
	}
	if iter < floor {
		return fmt.Errorf("tenant %d saw snapshot iter %d after %d", t, iter, floor)
	}
	return nil
}

// runServeSegment runs one segment of serve_open: gateway and request
// pool set-up, a warm-up span, then spec.Ops requests on the open-loop
// schedule while a capturer swaps in a new snapshot version every 100 ms.
func runServeSegment(w workload, spec segmentSpec, procStart time.Time) (segmentResult, []span) {
	res := segmentResult{Workload: w.Name, Traced: spec.Traced, Ops: spec.Ops}
	fail := func(err error) (segmentResult, []span) {
		res.Err = err.Error()
		res.Failed = res.Ops
		return res, nil
	}

	store := snapshot.NewStore(serveNet, spec.Seed)
	net := serveNet(rand.New(rand.NewSource(spec.Seed)))
	version := 1
	store.Capture(version, 0, net.Params())
	bodies, err := makeServeBodies(spec.Seed, store.Latest())
	if err != nil {
		return fail(err)
	}
	reg := metrics.NewComm()
	gw := serve.New(store, serve.Options{Metrics: reg})
	srv := httptest.NewServer(gw.Handler())

	stopCapture := make(chan struct{})
	captureDone := make(chan struct{})
	go func() {
		defer close(captureDone)
		tick := time.NewTicker(serveCaptureMS * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCapture:
				return
			case <-tick.C:
				version++
				store.Capture(version, 0, net.Params())
			}
		}
	}()

	warm := int(float64(spec.Ops)*serveWarmShare + 0.5)
	total := warm + spec.Ops
	reqs := make([]request, total)
	var floors tenantFloors
	var next atomic.Int64
	var allocStart uint64 // written by the goroutine that sends request `warm`, read after wg.Wait
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One keep-alive connection per generator goroutine.
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				r := &reqs[i]
				r.due = dueTime(t0, i, serveRate)
				time.Sleep(time.Until(r.due))
				tenant := i % serveTenants
				body := &bodies[i%len(bodies)]
				floor := floors.floor(tenant)
				r.sent = time.Now()
				r.cpu = processCPU()
				if i == warm {
					allocStart = heapAllocated()
				}
				iter, err := postPredict(client, srv.URL, tenant, body.json, &buf)
				r.done = time.Now()
				if err == nil {
					err = floors.observe(tenant, floor, iter)
				}
				if err == nil {
					err = r.check(body, buf.Bytes())
				}
				r.err = err
				r.bytes = buf.Len()
			}
		}()
	}
	wg.Wait()
	endCPU := processCPU()
	res.AllocBytes = heapAllocated() - allocStart
	close(stopCapture)
	<-captureDone
	srv.Close()
	gw.Close()

	timedStart := dueTime(t0, warm, serveRate)
	res.SetupS = timedStart.Sub(procStart).Seconds()
	res.SetupCPUS = reqs[warm].cpu.Seconds()
	var lateMS []float64
	var nll float64
	var instances int
	end := timedStart
	var firstErr error
	for i := warm; i < total; i++ {
		r := &reqs[i]
		if r.done.After(end) {
			end = r.done
		}
		lateMS = append(lateMS, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		// The two connections take requests in turn, so consecutive sends are
		// consecutive in time but for a race at the hand-over; the sums over
		// a window telescope either way.
		nextCPU := endCPU
		if i+1 < total {
			nextCPU = reqs[i+1].cpu
		}
		res.OpCPUMS = append(res.OpCPUMS, float64((nextCPU-r.cpu).Nanoseconds())/1e6)
		if r.err != nil {
			res.Failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		res.OpMS = append(res.OpMS, float64(r.done.Sub(r.due).Nanoseconds())/1e6)
		res.EgressBytes += int64(r.bytes)
		res.Samples += float64(r.correct)
		nll += r.nll
		instances += serveInstances
	}
	res.WallS = end.Sub(timedStart).Seconds()
	if instances > 0 {
		res.Loss = nll / float64(instances)
	}
	if firstErr != nil {
		// Failed requests are counted one by one; the segment's other ops
		// stand. The first cause goes to stderr through the parent.
		res.Err = ""
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed, first: %v\n", w.Name, res.Failed, res.Ops, firstErr)
	}

	if !spec.Traced {
		return res, nil
	}
	rec := newRecorder(total)
	for i := warm; i < total; i++ {
		r := &reqs[i]
		rec.add(stepID(i), 0, i, "serve.request", r.due, r.done)
		rec.add(0, stepID(i), i, "loadgen.late", r.due, r.sent)
	}
	sv := reg.Snapshot().Serve
	res.Layer = map[string]float64{
		"serve.op_ms_p99":     percentile(res.OpMS, 0.99),
		"loadgen.late_ms_p90": percentile(lateMS, 0.90),
	}
	if sv != nil {
		res.Layer["serve.batch_rows_mean"] = sv.MeanBatch
		res.Layer["serve.requests"] = float64(sv.Requests)
		res.Layer["serve.shed"] = float64(sv.Shed)
		res.Layer["serve.rate_limited"] = float64(sv.RateLimited)
	}
	spans := rec.snapshot()
	res.Spans = len(spans)
	res.SelfMS = selfMSPerOp(spans, spec.Ops)
	return res, spans
}

// postPredict sends one predict request and leaves the reply body in
// buf; it returns the snapshot version stamped on the reply.
func postPredict(client *http.Client, url string, tenant int, body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequest("POST", url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(fleet.HeaderTenant, "tenant-"+strconv.Itoa(tenant))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	iter, err := strconv.Atoi(resp.Header.Get(fleet.HeaderIter))
	if err != nil {
		return 0, fmt.Errorf("snapshot iter header: %w", err)
	}
	return iter, nil
}

// check compares a reply with the snapshot's own answer to the same
// body and accumulates its loss.
func (r *request) check(body *serveBody, reply []byte) error {
	var got predictReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	if len(got.Predictions) != len(body.labels) {
		return fmt.Errorf("%d predictions for %d instances", len(got.Predictions), len(body.labels))
	}
	for i, p := range got.Predictions {
		if p.Label != body.labels[i] {
			return fmt.Errorf("instance %d: served label %d, local Predict says %d", i, p.Label, body.labels[i])
		}
		prob := 1e-12
		if t := body.truth[i]; t < len(p.Probs) && float64(p.Probs[t]) > prob {
			prob = float64(p.Probs[t])
		}
		r.nll -= math.Log(prob)
		r.correct++
	}
	return nil
}
