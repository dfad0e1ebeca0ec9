// Elastic-membership churn, end to end with real processes: a worker
// SIGKILLed mid-training must re-form the cluster at a membership
// barrier and finish with the exact trajectory of a smaller cluster
// continued from the barrier snapshot; a late joiner must be absorbed
// with every replica byte-identical. Both runs go through
// poseidon-cluster's chaos scheduler (-kill-after / -join-after), so
// the triggers land at known training iterations.
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
)

var paramsRE = regexp.MustCompile(`\[w(\d+)\] PARAMS ([0-9a-f]{16})`)

// sameDigests asserts out carries exactly n PARAMS lines, all with the
// same digest, and returns it.
func sameDigests(t *testing.T, out string, n int) string {
	t.Helper()
	digests := paramsRE.FindAllStringSubmatch(out, -1)
	if len(digests) != n {
		t.Fatalf("found %d PARAMS digests, want %d\n%s", len(digests), n, out)
	}
	for _, d := range digests[1:] {
		if d[2] != digests[0][2] {
			t.Fatalf("replicas diverged: digests %v", digests)
		}
	}
	return digests[0][2]
}

// lossMap collects `prefix + "LOSS <iter> <loss>"` lines; unlike the
// fixed-cluster parser it tolerates holes — a churn survivor skips the
// iterations lost between the trigger and the membership barrier.
func lossMap(t *testing.T, out, prefix string) map[int]float64 {
	t.Helper()
	m := make(map[int]float64)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix+"LOSS ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, prefix+"LOSS "))
		if len(fields) != 2 {
			t.Fatalf("malformed loss line %q", line)
		}
		iter, err1 := strconv.Atoi(fields[0])
		loss, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed loss line %q", line)
		}
		m[iter] = loss
	}
	return m
}

// runRefWorkers launches one raw poseidon-worker per argument set and
// waits for all of them to exit cleanly, returning each one's combined
// output.
func runRefWorkers(t *testing.T, bin string, argsets [][]string) []string {
	t.Helper()
	outs := make([]*lineBuffer, len(argsets))
	cmds := make([]*exec.Cmd, len(argsets))
	for i, args := range argsets {
		outs[i] = &lineBuffer{}
		cmds[i] = exec.Command(filepath.Join(bin, "poseidon-worker"), args...)
		cmds[i].Stdout = outs[i]
		cmds[i].Stderr = outs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("start reference worker %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	})
	res := make([]string, len(cmds))
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("reference worker %d failed: %v\n%s", i, err, outs[i].String())
		}
		res[i] = outs[i].String()
	}
	return res
}

// TestElasticKillChurnMatchesContinuation runs 5 elastic workers, has
// the launcher SIGKILL rank 2 once it reports iteration 8, and demands
// that the survivors (a) commit the same epoch-1 view without the
// victim, (b) finish with byte-identical replicas, and (c) — the real
// teeth — track a fresh 4-process cluster continued from the barrier
// snapshot to within 1e-6 per iteration, digests included. Elastic
// recovery may lose the in-flight iterations, but it must not invent
// arithmetic.
func TestElasticKillChurnMatchesContinuation(t *testing.T) {
	bin := buildBinaries(t)
	const iters = 24
	snapDir := t.TempDir()

	cluster := exec.Command(filepath.Join(bin, "poseidon-cluster"),
		"-worker", filepath.Join(bin, "poseidon-worker"),
		"-n", "5", "-iters", fmt.Sprint(iters),
		"-elastic", "-kill-after", "8:2", "-snapshot-dir", snapDir,
		"-dump-losses", "-print-every", "1", "-timeout", "3m")
	raw, err := cluster.CombinedOutput()
	if err != nil {
		t.Fatalf("churn cluster run: %v\n%s", err, raw)
	}
	out := string(raw)
	if !strings.Contains(out, "chaos: SIGKILL worker 2") {
		t.Fatalf("chaos kill never fired\n%s", out)
	}

	// Every survivor committed the same epoch-1 view naming exactly the
	// live ranks, with one agreed restart iteration.
	views := regexp.MustCompile(`\[w(\d+)\] VIEW 1 0,1,3,4 (\d+)`).FindAllStringSubmatch(out, -1)
	if len(views) != 4 {
		t.Fatalf("found %d epoch-1 VIEW lines for members 0,1,3,4, want 4\n%s", len(views), out)
	}
	restart, err := strconv.Atoi(views[0][2])
	if err != nil || restart < 1 || restart >= iters {
		t.Fatalf("implausible restart iteration %q", views[0][2])
	}
	for _, v := range views[1:] {
		if v[2] != views[0][2] {
			t.Fatalf("survivors disagree on the restart iteration: %v", views)
		}
	}
	churnDigest := sameDigests(t, out, 4)

	// Continuation reference: 4 fresh non-elastic processes resume from
	// a survivor's snapshot (restart iteration embedded in the file).
	snap := filepath.Join(snapDir, "snap-0.bin")
	peers := strings.Join(freeAddrs(t, 4), ",")
	argsets := make([][]string, 4)
	for i := range argsets {
		argsets[i] = []string{
			"-id", fmt.Sprint(i), "-peers", peers,
			"-iters", fmt.Sprint(iters), "-load-params", snap,
			"-dump-losses", "-print-every", "0",
		}
	}
	refOuts := runRefWorkers(t, bin, argsets)

	refDigest := regexp.MustCompile(`PARAMS ([0-9a-f]{16})`).FindStringSubmatch(refOuts[0])
	if refDigest == nil {
		t.Fatalf("continuation printed no PARAMS digest\n%s", refOuts[0])
	}
	if refDigest[1] != churnDigest {
		t.Fatalf("survivors diverged from the continuation reference: %s vs %s", churnDigest, refDigest[1])
	}

	// Per-iteration losses from the restart on: survivor rank r is dense
	// index di in the shrunken view, so it computes the same shard as
	// reference worker di.
	for di, r := range []int{0, 1, 3, 4} {
		got := lossMap(t, out, fmt.Sprintf("[w%d] ", r))
		want := lossMap(t, refOuts[di], "")
		for iter := restart; iter < iters; iter++ {
			g, ok1 := got[iter]
			w, ok2 := want[iter]
			if !ok1 || !ok2 {
				t.Fatalf("iteration %d missing from survivor %d (have=%v) or reference %d (have=%v)", iter, r, ok1, di, ok2)
			}
			if d := math.Abs(g - w); d > 1e-6 {
				t.Fatalf("survivor %d iter %d: churn loss %.12g vs continuation %.12g (|d|=%g > 1e-6)", r, iter, g, w, d)
			}
		}
	}
}

// TestElasticKillDuringReplan kills a worker and flips a route in one
// run — the combination that needed two barrier protocols to reject.
// Three elastic workers start from the replan test's wrong 1 GB/s claim
// (every tensor mis-planned onto the PS), re-plan every 6 iterations
// from the measured wire rate, and lose rank 2 to SIGKILL around
// iteration 8. The survivors must exit 0 with identical digests, agree
// on the replan events (at least one flip off the PS), and commit
// exactly one membership view change. No loss-parity bound against a
// second run: kill timing and measured bandwidth both depend on load, so
// two such runs are not comparable — the in-process
// TestElasticKillDuringScheduledReplan carries byte-identity and leases.
func TestElasticKillDuringReplan(t *testing.T) {
	bin := buildBinaries(t)
	raw, err := exec.Command(filepath.Join(bin, "poseidon-cluster"),
		"-worker", filepath.Join(bin, "poseidon-worker"),
		"-n", "3", "-iters", "18", "-batch", "4", "-lr", "0.1", "-seed", "42",
		"-elastic", "-replan-every", "6", "-replan-alpha", "1", "-kill-after", "8:2",
		"-bw", "1e9", "-frame-overhead", "2e-5",
		"-autoplan", "-metrics-dump", "-dump-losses", "-print-every", "1", "-timeout", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("kill-during-replan cluster run: %v\n%s", err, raw)
	}
	out := string(raw)
	if !strings.Contains(out, "chaos: SIGKILL worker 2") {
		t.Fatalf("chaos kill never fired\n%s", out)
	}
	sameDigests(t, out, 2)

	views := regexp.MustCompile(`(?m)^\[w(\d+)\] VIEW \d+ (\S+) \d+$`).FindAllStringSubmatch(out, -1)
	if len(views) != 2 || views[0][1] == views[1][1] || views[0][2] != "0,1" || views[1][2] != "0,1" {
		t.Fatalf("want exactly one membership view change per survivor, to members 0,1; got %v\n%s", views, out)
	}

	events := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		m := metricsLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var snap metricsSnapshot
		if err := json.Unmarshal([]byte(m[2]), &snap); err != nil {
			t.Fatalf("worker %s METRICS unparseable: %v\n%s", m[1], err, m[2])
		}
		offPS := false
		for _, e := range snap.ReplanEvents {
			offPS = offPS || e.From == "PS"
		}
		if !offPS {
			t.Fatalf("worker %s logged no flip off the mis-planned PS: %+v\n%s", m[1], snap.ReplanEvents, out)
		}
		events[m[1]] = fmt.Sprint(snap.ReplanEvents)
	}
	if len(events) != 2 || events["0"] != events["1"] {
		t.Fatalf("survivors 0 and 1 must log the same replan events; got %v", events)
	}
}

// TestElasticJoinChurnExpandsCluster runs 4 elastic workers over a
// 5-slot mesh and has the launcher spawn a late joiner once training
// reaches iteration 8: all five must commit the same epoch-1 view and
// finish with byte-identical replicas — the joiner adopts the leader's
// snapshot at the barrier and is indistinguishable from a founder
// thereafter.
func TestElasticJoinChurnExpandsCluster(t *testing.T) {
	bin := buildBinaries(t)
	const iters = 24

	cluster := exec.Command(filepath.Join(bin, "poseidon-cluster"),
		"-worker", filepath.Join(bin, "poseidon-worker"),
		"-n", "4", "-iters", fmt.Sprint(iters),
		"-elastic", "-join-after", "8",
		"-dump-losses", "-print-every", "1", "-timeout", "3m")
	raw, err := cluster.CombinedOutput()
	if err != nil {
		t.Fatalf("join cluster run: %v\n%s", err, raw)
	}
	out := string(raw)
	if !strings.Contains(out, "chaos: spawning joiner worker 4") {
		t.Fatalf("chaos join never fired\n%s", out)
	}

	views := regexp.MustCompile(`\[w(\d+)\] VIEW 1 0,1,2,3,4 (\d+)`).FindAllStringSubmatch(out, -1)
	if len(views) != 5 {
		t.Fatalf("found %d epoch-1 VIEW lines for members 0,1,2,3,4, want 5\n%s", len(views), out)
	}
	for _, v := range views[1:] {
		if v[2] != views[0][2] {
			t.Fatalf("members disagree on the restart iteration: %v", views)
		}
	}
	sameDigests(t, out, 5)
}
