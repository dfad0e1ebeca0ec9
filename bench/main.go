// Command bench is the repository's benchmark: four train/serve
// workloads driven through the public entry points, measured as
// best-of-K segments that each run in a fresh child process, plus a
// traced pass and isolated per-layer drivers. See README.md.
//
//	go run ./bench                      every workload, traced pass, record
//	go run ./bench -aa                  the same twice, compared against the bounds
//	go run ./bench -workload W -seed S -seconds T -trace 0|1
//	                                    the driver's form: one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// procStart is as close to process start as Go code gets; a segment's
// setup_s counts from here.
var procStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all)")
		seed     = fs.Int64("seed", 1, "seed for data, model init and request bodies")
		seconds  = fs.Float64("seconds", 0, "timed seconds per workload, split over the segments (default: 5 per segment)")
		segments = fs.Int("segments", 0, "untraced segments per workload (default: 5, or 3 with -trace)")
		trace    = fs.String("trace", "", "driver form: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer ones")
		traceOut = fs.String("trace-out", "", "directory the traced pass writes trace-<workload>.json into (default: -scratch)")
		list     = fs.Bool("list", false, "list workloads and metrics, then exit")
		aa       = fs.Bool("aa", false, "run the set twice and compare the two against the bounds")
		record   = fs.String("record", "", "where to write the run record (default: <scratch>/BENCH_run.json)")
		scratch  = fs.String("scratch", ".bench_build", "directory for shm rings, traces and the record")
		segSpec  = fs.String("segment-spec", "", "internal: run one segment described by this JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *segSpec != "" {
		var spec segmentSpec
		if err := json.Unmarshal([]byte(*segSpec), &spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: bad -segment-spec:", err)
			return 2
		}
		out, err := json.Marshal(runSegment(spec, procStart))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return 0
	}
	if *list {
		printList(stdout)
		return 0
	}

	cfg := runConfig{Workloads: workloads, Seed: *seed, Segments: *segments,
		Traced: true, Scratch: *scratch, TraceOut: *traceOut, child: execChild}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			return 2
		}
		cfg.Workloads = []workload{w}
	}
	driver := *trace != ""
	if driver {
		switch {
		case *trace != "0" && *trace != "1":
			fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
			return 2
		case len(cfg.Workloads) != 1:
			fmt.Fprintln(os.Stderr, "bench: -trace needs -workload")
			return 2
		}
		cfg.Traced = *trace == "1"
	}
	if cfg.Segments <= 0 {
		cfg.Segments = 5
		if driver {
			cfg.Segments = 3
		}
	}
	cfg.SegmentSeconds = 5
	if *seconds > 0 {
		cfg.SegmentSeconds = *seconds / float64(cfg.Segments)
	}
	if driver && cfg.Traced {
		// The traced pass needs one untraced segment of the same length to
		// read its overhead against; the end-to-end numbers come from the
		// -trace 0 runs.
		cfg.Segments = 1
	}

	if driver {
		rep, err := runSet(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return printDriverLine(stdout, rep.Workloads[0], cfg.Traced)
	}

	runs := 1
	if *aa {
		runs = 2
	}
	ledger := ledgerFile{Command: "go run ./bench " + strings.Join(args, " ")}
	ok := true
	for i := 0; i < runs; i++ {
		rep, err := runSet(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printReport(stdout, rep)
		for _, w := range rep.Workloads {
			ok = ok && w.correct()
		}
		ledger.Runs = append(ledger.Runs, rep)
	}
	if *aa {
		ledger.AA = compareRuns(ledger.Runs[0], ledger.Runs[1])
		if !printAA(stdout, ledger.AA) {
			ok = false
		}
	}
	path := *record
	if path == "" {
		path = filepath.Join(*scratch, "BENCH_run.json")
	}
	if err := writeLedger(path, ledger); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nrecord written to %s\n", path)
	if !ok {
		return 1
	}
	return 0
}
