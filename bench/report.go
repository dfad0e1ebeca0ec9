package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (bound = allowed worsening):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-6s better %-6s bound %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "unbounded metrics (timings, then per layer):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-38s %-8s better %s\n", m.Name, m.Unit, m.Better)
	}
}

// driverLine is the one JSON object the driver reads off the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, r workloadReport, traced bool) int {
	specs, vals := endToEnd, r.EndToEnd
	if traced {
		specs, vals = perLayer, r.Layer
	}
	line := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverValue, len(specs))}
	for _, m := range specs {
		line.Metrics[m.Name] = driverValue{Value: vals[m.Name], Unit: m.Unit}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, e)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	return 0
}

// printReport prints every metric by name with its unit, and how many
// segments and samples stand behind it.
func printReport(w io.Writer, rep runReport) {
	for _, r := range rep.Workloads {
		verdict := "correct"
		if !r.correct() {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "\n== %s  seed %d, %d segments x %d timed ops, %d attempted, %d failed: %s\n",
			r.Workload, rep.Seed, len(r.Segments), r.Ops, r.Attempted, r.Failed, verdict)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "   error: %s\n", e)
		}
		for _, m := range endToEnd {
			printMetric(w, m, r.EndToEnd[m.Name], r.PerSegment)
		}
		fmt.Fprintln(w, "  -- timings (no bound: the host's other tenants move these)")
		for _, m := range timings {
			printMetric(w, m, r.Timings[m.Name], r.PerSegment)
		}
		if wl, _ := findWorkload(r.Workload); wl.serve {
			fmt.Fprintf(w, "  %-22s %14.9g nat    mean -log p(true label); every label checked against a local Predict\n", "loss_final", r.LossFinal)
		} else {
			fmt.Fprintf(w, "  %-22s %14.9g nat    checked against the channel-mesh reference %.9g\n", "loss_final", r.LossFinal, r.RefLoss)
		}
		if r.Traced == nil {
			continue
		}
		fmt.Fprintf(w, "  -- traced pass: %d ops, %d spans; self time per op by span:", r.Traced.Ops, r.Traced.Spans)
		names := make([]string, 0, len(r.SelfMS))
		for name := range r.SelfMS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, " %s %.3g ms,", name, r.SelfMS[name])
		}
		fmt.Fprintln(w)
		if late := r.Layer["loadgen.late_ms_p90"]; late > serveLateWarnMS {
			fmt.Fprintf(w, "  !! the generator ran %.2f ms late at p90: these latencies are the generator's, not the gateway's\n", late)
		}
		for _, m := range perLayer[len(timings):] {
			if _, isolated := rep.Isolated[m.Name]; !isolated {
				fmt.Fprintf(w, "  %-38s %14.6g %s\n", m.Name, r.Layer[m.Name], m.Unit)
			}
		}
	}
	if len(rep.Isolated) > 0 {
		fmt.Fprintf(w, "\n== isolated layer drivers (fixed call counts, best of %d repeats)\n", driverRepeats)
		for _, m := range perLayer {
			if v, ok := rep.Isolated[m.Name]; ok {
				fmt.Fprintf(w, "  %-38s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "\nset finished in %.1f s\n", rep.ElapsedS)
}

func printMetric(w io.Writer, m metricSpec, v float64, perSegment []map[string]float64) {
	fmt.Fprintf(w, "  %-22s %14.6g %-6s per segment:", m.Name, v, m.Unit)
	for _, s := range perSegment {
		fmt.Fprintf(w, " %.6g", s[m.Name])
	}
	fmt.Fprintln(w)
}

// aaRow compares one end-to-end metric of one workload across two runs
// of the same code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func compareRuns(a, b runReport) []aaRow {
	var rows []aaRow
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			x, y := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			row := aaRow{Workload: wa.Workload, Metric: m.Name, A: x, B: y, Bound: m.Bound}
			if x != y {
				row.RelDiff = math.Abs(y-x) / math.Max(math.Abs(x), math.Abs(y))
			}
			row.Within = row.RelDiff <= m.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

func printAA(w io.Writer, rows []aaRow) bool {
	ok := true
	fmt.Fprintf(w, "\n== A/A: two runs of the same code\n  %-14s %-22s %14s %14s %9s %7s\n",
		"workload", "metric", "run 1", "run 2", "rel diff", "bound")
	for _, r := range rows {
		mark := ""
		if !r.Within {
			mark, ok = "  EXCEEDS", false
		}
		fmt.Fprintf(w, "  %-14s %-22s %14.6g %14.6g %9.4f %7.4f%s\n", r.Workload, r.Metric, r.A, r.B, r.RelDiff, r.Bound, mark)
	}
	return ok
}

// ledgerFile is the committed record format (records/BENCH_<n>.json).
type ledgerFile struct {
	Command string      `json:"command"`
	Runs    []runReport `json:"runs"`
	AA      []aaRow     `json:"aa,omitempty"`
}

func writeLedger(path string, l ledgerFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
