package e2e

import (
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/poseidon"
)

// metricsSnapshot is the subset of the worker's METRICS JSON this suite
// asserts on (schema: internal/metrics.CommSnapshot).
type metricsSnapshot struct {
	Wire struct {
		FramesSent int64 `json:"frames_sent"`
		BytesSent  int64 `json:"bytes_sent"`
		// BytesCopiedPerFrame is the transport's own copying per frame
		// sent — on the vectored-write TCP path this is the 4-byte
		// length prefix plus the 17-byte header, never the payload.
		BytesCopiedPerFrame float64 `json:"bytes_copied_per_frame"`
	} `json:"wire"`
	Params []struct {
		Index int    `json:"index"`
		Name  string `json:"name"`
		Route string `json:"route"`
		Bytes int64  `json:"bytes_sent"`
	} `json:"params"`
	Totals struct {
		BytesSent       int64 `json:"bytes_sent"`
		SFBParams       int   `json:"sfb_params"`
		SFBSavingsBytes int64 `json:"sfb_savings_bytes"`
	} `json:"totals"`
	// ReplanEvents lists the route flips applied at epoch transitions.
	ReplanEvents []struct {
		Iter  int    `json:"iter"`
		Epoch int    `json:"epoch"`
		Param int    `json:"param"`
		Name  string `json:"name"`
		From  string `json:"from"`
		To    string `json:"to"`
	} `json:"replan_events"`
	// BWEstimateBPS is the planner's final EWMA wire-rate estimate
	// (worker 0 only; 0 elsewhere).
	BWEstimateBPS float64 `json:"bw_estimate_bps"`
	// AllocsPerIter is the worker's process-wide runtime.MemStats
	// Mallocs delta per iteration — the live-cluster view of the wire
	// path's allocation behavior.
	AllocsPerIter float64 `json:"allocs_per_iter"`
}

// metricsLine matches one worker's "[wN] METRICS {...}" output line.
var metricsLine = regexp.MustCompile(`^\[w(\d+)\] METRICS (.*)$`)

// parseMetrics extracts every worker's METRICS snapshot from cluster
// output.
func parseMetrics(t *testing.T, out string, workers int) []metricsSnapshot {
	t.Helper()
	snaps := make([]metricsSnapshot, workers)
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		m := metricsLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		id, err := strconv.Atoi(m[1])
		if err != nil || id < 0 || id >= workers {
			t.Fatalf("METRICS line for unknown worker %q", m[1])
		}
		if err := json.Unmarshal([]byte(m[2]), &snaps[id]); err != nil {
			t.Fatalf("worker %d METRICS unparseable: %v\n%s", id, err, m[2])
		}
		seen++
	}
	if seen != workers {
		t.Fatalf("found %d METRICS lines, want %d\n%s", seen, workers, out)
	}
	return snaps
}

// TestAutoplanMatchesChanMeshAndBeatsPurePS is the paper's claim on a
// real multi-process cluster: with -autoplan (Algorithm 1 routing the
// fat FC layer over SFB), a 3-process TCP run (a) reproduces the
// in-process ChanMesh hybrid losses to 1e-6 with byte-identical
// replicas, and (b) moves strictly fewer bytes on the wire than the
// identical run forced through the pure parameter server.
func TestAutoplanMatchesChanMeshAndBeatsPurePS(t *testing.T) {
	bin := buildBinaries(t)
	const workers, iters = 3, 12
	const seed = 42

	runCluster := func(extra ...string) string {
		t.Helper()
		args := []string{
			"-worker", filepath.Join(bin, "poseidon-worker"),
			"-n", fmt.Sprint(workers), "-iters", fmt.Sprint(iters),
			"-batch", "8", "-lr", "0.1", "-seed", fmt.Sprint(seed),
			"-metrics-dump", "-print-every", "0", "-timeout", "3m",
		}
		args = append(args, extra...)
		out, err := exec.Command(filepath.Join(bin, "poseidon-cluster"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("cluster run %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	hybridOut := runCluster("-autoplan", "-dump-losses")

	// The cost model must actually have routed something over SFB —
	// otherwise the byte comparison below proves nothing about HybComm.
	if !regexp.MustCompile(`\[w0\] PLAN param=\d+ name=\S+ shape=\S+ route=SFB`).MatchString(hybridOut) {
		t.Fatalf("autoplan chose no SFB route — the fat FC layer should clear Algorithm 1's threshold\n%s", hybridOut)
	}

	// (a) Statistical parity: TCP autoplan losses == in-process ChanMesh
	// hybrid losses, per worker, to 1e-6.
	refs, err := referenceSession(t, workers, iters, seed, poseidon.Hybrid).RunAll()
	if err != nil {
		t.Fatalf("ChanMesh reference: %v", err)
	}
	for id := 0; id < workers; id++ {
		losses := parseLosses(t, hybridOut, id, iters)
		for i, p := range refs[id].Curve {
			if d := math.Abs(losses[i] - p.TrainLoss); d > 1e-6 {
				t.Fatalf("worker %d iter %d: autoplan TCP loss %.12g vs ChanMesh hybrid %.12g (|d|=%g > 1e-6)",
					id, i, losses[i], p.TrainLoss, d)
			}
		}
	}

	// Byte-identical replicas across processes.
	digests := regexp.MustCompile(`\[w\d+\] PARAMS ([0-9a-f]{16})`).FindAllStringSubmatch(hybridOut, -1)
	if len(digests) != workers {
		t.Fatalf("found %d PARAMS digests, want %d\n%s", len(digests), workers, hybridOut)
	}
	for _, d := range digests[1:] {
		if d[1] != digests[0][1] {
			t.Fatalf("replicas diverged under autoplan: digests %v", digests)
		}
	}

	// (b) Wire-byte comparison against the identical run forced pure-PS.
	psOut := runCluster("-mode", "ps")

	hybridSnaps := parseMetrics(t, hybridOut, workers)
	psSnaps := parseMetrics(t, psOut, workers)
	var hybridBytes, psBytes, hybridWire, psWire int64
	for id := 0; id < workers; id++ {
		hybridBytes += hybridSnaps[id].Totals.BytesSent
		psBytes += psSnaps[id].Totals.BytesSent
		hybridWire += hybridSnaps[id].Wire.BytesSent
		psWire += psSnaps[id].Wire.BytesSent

		if hybridSnaps[id].Totals.SFBParams < 1 {
			t.Fatalf("worker %d: hybrid snapshot shows no SFB params", id)
		}
		if hybridSnaps[id].AllocsPerIter <= 0 {
			t.Fatalf("worker %d: METRICS missing allocs_per_iter", id)
		}
		// Zero-copy egress on a live cluster: the TCP transport's own
		// copying must be the 21-byte prefix+header per frame, nothing
		// of the payload (32 B leaves headroom for goodbye frames).
		if c := hybridSnaps[id].Wire.BytesCopiedPerFrame; c <= 0 || c > 32 {
			t.Fatalf("worker %d: bytes_copied_per_frame = %.1f, want header-only (0 < c <= 32) — payload bytes leaking into transport scratch?", id, c)
		}
		if hybridSnaps[id].Totals.SFBSavingsBytes <= 0 {
			t.Fatalf("worker %d: hybrid snapshot shows no SFB savings", id)
		}
		for _, p := range psSnaps[id].Params {
			if p.Route != "PS" {
				t.Fatalf("worker %d: pure-PS run routed param %d over %s", id, p.Index, p.Route)
			}
		}
	}
	t.Logf("cluster egress: hybrid %d B (wire %d B) vs pure PS %d B (wire %d B)",
		hybridBytes, hybridWire, psBytes, psWire)
	if hybridBytes >= psBytes {
		t.Fatalf("hybrid moved %d bytes, pure PS %d — HybComm must move strictly fewer", hybridBytes, psBytes)
	}
	if hybridWire >= psWire {
		t.Fatalf("hybrid wire total %d >= pure PS %d", hybridWire, psWire)
	}
}
