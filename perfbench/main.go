// Command perfbench is the repository's end-to-end benchmark. It drives the
// reproduction from outside, through the root package and the exported
// functions of internal/*, on one of three workloads:
//
//   - tables-cold: regenerate every table of the evaluation from an empty
//     cell cache (a few large programs, millions of simulated cycles each);
//   - matrix-sweep: the differential treatment matrix over a seeded batch
//     of generated programs (many tiny runs);
//   - daemon-mix: an in-process gcsafed on a loopback listener, driven by
//     two closed-loop clients with a seeded mix of cached runs, fresh runs
//     and checks.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every output is checked against a reference that does not come from the
// compiler: the workloads' hand-written expected output and known checker
// verdicts, and the program generator's reference model. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones from a separate traced replay. Any
// failure makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what a workload hands back to main.
type report struct {
	attempted int
	failed    int
	// failures describes the first few failures for standard error.
	failures []string
	// e2e are the end-to-end metrics (--trace 0), layer the per-layer ones
	// (--trace 1); human are workload-specific lines printed by name for
	// a reader, not part of the JSON record.
	e2e, layer, human []metric
	// spans is the traced replay, written out when the run ends.
	spans []span
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	start   time.Time
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// setupTimes are the wall and CPU seconds of each set-up.
type setupTimes struct{ wall, cpu []float64 }

// setUp runs one workload's set-up setupReps times and times each. The
// first counts from process start, which is when the benchmark starts.
func (o options) setUp(f func() error) (setupTimes, error) {
	var st setupTimes
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), processCPU()
		if i == 0 {
			t0, c0 = o.start, 0
		}
		if err := f(); err != nil {
			return st, err
		}
		st.wall = append(st.wall, time.Since(t0).Seconds())
		st.cpu = append(st.cpu, (processCPU() - c0).Seconds())
	}
	return st, nil
}

var workloadsByName = map[string]func(options) (*report, error){
	"tables-cold":  tablesCold,
	"matrix-sweep": matrixSweep,
	"daemon-mix":   daemonMix,
}

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	name := flag.String("workload", "", "tables-cold, matrix-sweep or daemon-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = add the traced replay and print the per-layer metrics")
	flag.Parse()
	wl, ok := workloadsByName[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tables-cold|matrix-sweep|daemon-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, start: start}
	rep, err := wl(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	control := metric{"host.control_ms", controlKernelMs(), "ms"}
	rep.human = append(rep.human, control)
	rep.layer = append(rep.layer, control)
	rep.layer = withUnexercised(rep.layer)
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", *name, f)
	}
	if opt.trace {
		if err := writeSpans(*name, *seed, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Printf("workload %s seed %d seconds %g GOMAXPROCS %d\n", *name, *seed, *seconds, runtime.GOMAXPROCS(0))
	fmt.Printf("%-34s %14.6g %s\n", "failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "1")
	for _, group := range [][]metric{rep.human, rep.e2e} {
		for _, m := range group {
			fmt.Printf("%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if opt.trace {
		fmt.Println("per-layer:")
		for _, m := range rep.layer {
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	out := map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
	}
	ms := map[string]any{}
	list := rep.e2e
	if opt.trace {
		list = rep.layer
	}
	for _, m := range list {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

// unexercised are the per-layer metrics of layers some workload does not
// reach: the cell harness outside tables-cold, the matrix outside
// matrix-sweep, the daemon outside daemon-mix, and the matrix's own
// artifact cache, which RunMatrix keeps to itself. They read 0 there, so
// every workload reports the same set.
var unexercised = []metric{
	{"bench.cells_computed", 0, "count"},
	{"fuzz.treatments", 0, "count"},
	{"artifact.hit_frac", 0, "1"},
	{"server.shed", 0, "count"},
	{"server.http_overhead_ms", 0, "ms"},
}

func withUnexercised(layer []metric) []metric {
	have := map[string]bool{}
	for _, m := range layer {
		have[m.Name] = true
	}
	for _, m := range unexercised {
		if !have[m.Name] {
			layer = append(layer, m)
		}
	}
	return layer
}

// writeSpans writes the traced replay's spans as JSON under .bench_build in
// the working directory.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
