package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gcsafety/internal/bench"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// window samples the host counters around a timed window: bytes the Go
// heap allocated, CPU time, busy and spent in the Go collector, as the Go
// runtime estimates it, and the CPU time the kernel charged the process.
type window struct {
	start                  time.Time
	allocs, cpuGC, cpuBusy float64
	processCPU             time.Duration
	elapsed                time.Duration
}

// processCPU is the user and system CPU time the kernel has charged the
// process, all threads included. Unlike wall time it leaves out time the
// hypervisor takes from the virtual CPUs (steal), which on a shared host
// comes and goes by the minute.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readHost() (allocs, cpuGC, cpuBusy float64) {
	metrics.Read(hostSamples)
	v := hostSamples
	return float64(v[0].Value.Uint64()), v[1].Value.Float64(), v[2].Value.Float64() - v[3].Value.Float64()
}

func openWindow() *window {
	w := &window{start: time.Now(), processCPU: processCPU()}
	w.allocs, w.cpuGC, w.cpuBusy = readHost()
	return w
}

func (w *window) close() {
	w.elapsed = time.Since(w.start)
	w.processCPU = processCPU() - w.processCPU
	a, g, b := readHost()
	w.allocs, w.cpuGC, w.cpuBusy = a-w.allocs, g-w.cpuGC, b-w.cpuBusy
}

// gcCPUFrac is the share of the window's busy CPU time (all but idle) the
// Go collector used. The runtime refreshes its CPU estimates at each
// collection, so the value is approximate over short windows.
func (w *window) gcCPUFrac() float64 {
	if w.cpuBusy <= 0 {
		return 0
	}
	return w.cpuGC / w.cpuBusy
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latencies summarises one set of per-operation times in milliseconds.
type latencies struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64 // the percentile tail reports
}

// summarise reports the median and the tail: the highest percentile with
// at least ten samples, and at least one in a hundred, beyond it — p99 from
// a thousand samples up — and never below the median (with fewer than
// twenty samples the tail is the median).
func summarise(ms []float64) latencies {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	n := len(s)
	l := latencies{n: n, p50: quantile(s, 0.5)}
	if n == 0 {
		return l
	}
	rank := max(n-max(10, n/100), (n+1)/2) // 1-based
	l.tail = s[rank-1]
	l.tailPct = 100 * float64(rank) / float64(n)
	return l
}

// tailNote is the tail's percentile and the sample count, printed beside
// a tail.
func (l latencies) tailNote(prefix string) []metric {
	return []metric{
		{prefix + "_tail_pct", l.tailPct, "%"},
		{prefix + "_samples", float64(l.n), "count"},
	}
}

// setE2E records the metrics every workload reports. An operation is one
// cold table sweep, one program's matrix, or one daemon request.
//
// The end-to-end metrics a bound applies to are the ones the host's
// fluctuating steal time leaves alone: CPU time charged to the process per
// operation and per set-up, host bytes allocated per operation, and the
// deterministic simulated results. The wall-clock figures a user waits
// for — throughput, median and tail operation time, set-up time — vary by
// up to a third between runs minutes apart on a shared host, more than any
// bound may allow; they are recorded beside the others, printed on every
// run and reported as per-layer metrics, with the tail's percentile and
// sample count.
func (r *report) setE2E(setup setupTimes, w *window, ops latencies, done []time.Duration, sim []metric) {
	nops := float64(max(len(done), 1))
	r.e2e = []metric{
		{"setup_s", median(setup.cpu), "s"},
		{"cpu_ms_per_op", float64(w.processCPU) / 1e6 / nops, "ms"},
		{"alloc_mb_per_op", w.allocs / nops / 1e6, "MB"},
	}
	r.e2e = append(r.e2e, sim...)
	wall := []metric{
		{"wall.setup_s", median(setup.wall), "s"},
		{"wall.ops_per_s", throughput(done, w.elapsed), "1/s"},
		{"wall.op_p50_ms", ops.p50, "ms"},
		{"wall.op_tail_ms", ops.tail, "ms"},
	}
	r.human = append(r.human, wall...)
	r.human = append(r.human, ops.tailNote("op")...)
	r.layer = append(r.layer, wall...)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// throughputSlices is how many equal slices of the window the throughput
// of short operations is measured over.
const throughputSlices = 10

// throughput is operations completed per second. With enough operations
// that each slice of the window holds a hundred, it is the median over the
// slices, so a burst of interference from outside the process moves one
// slice, not the result; otherwise it is the whole window's rate.
func throughput(done []time.Duration, elapsed time.Duration) float64 {
	if len(done) < 100*throughputSlices {
		return float64(len(done)) / elapsed.Seconds()
	}
	counts := make([]float64, throughputSlices)
	for _, d := range done {
		counts[min(int(d*throughputSlices/elapsed), throughputSlices-1)]++
	}
	sort.Float64s(counts)
	slice := elapsed.Seconds() / throughputSlices
	return quantile(counts, 0.5) / slice
}

// zornSS10 is the SPARCstation 10 cell set the sim_* metrics and the
// sim.cycles.* layer metrics read: the four Zorn workloads under the
// optimized baseline and every treatment the tables compare against it.
var zornSS10 = []bench.Treatment{
	bench.Opt, bench.OptSafe, bench.Debug, bench.DebugChecked,
	bench.OptSafePost, bench.OptSafeElided, bench.DebugCheckedElided,
}

// simulated returns the deterministic simulated-result metrics: the
// geometric mean over the Zorn workloads of the SPARCstation 10 cycle or
// size ratio to -O (as a percentage overhead), each workload's cycles per
// treatment, and the retained heap at exit of every table workload. On
// tables-cold the cells are already in the cache; the other workloads
// compute them after their timed window. Workloads whose cell is
// unavailable (cfrac -g) or whose checked build correctly fails (gawk)
// have no ratio, as in the paper's tables.
func simulated(r *report) (e2e, layer []metric, err error) {
	cfg := machine.SPARCstation10()
	var reqs []bench.CellRequest
	for _, w := range workloads.All() {
		for _, tr := range zornTreatments(w) {
			reqs = append(reqs, bench.CellRequest{Workload: w, Treatment: tr, Machine: cfg})
		}
	}
	ms, err := bench.MeasureAll(reqs)
	if err != nil {
		return nil, nil, fmt.Errorf("simulated cells: %w", err)
	}
	cells := map[string]map[string]*bench.Measurement{}
	for i, q := range reqs {
		w, tr, m := q.Workload, q.Treatment, ms[i]
		if p := checkCell(w, tr, m); p != "" {
			r.fail("%s", p)
		}
		if cells[w.Name] == nil {
			cells[w.Name] = map[string]*bench.Measurement{}
		}
		cells[w.Name][tr.Name] = m
		if !m.CheckFailed {
			layer = append(layer, metric{"sim.cycles." + w.Name + "." + metricName(tr.Name), float64(m.Cycles), "cycles"})
		}
	}
	var safe, checked, post, size []float64
	for _, w := range workloads.All() {
		c := cells[w.Name]
		base := c[bench.Opt.Name]
		safe = append(safe, ratio(c[bench.OptSafe.Name].Cycles, base.Cycles))
		post = append(post, ratio(c[bench.OptSafePost.Name].Cycles, base.Cycles))
		size = append(size, ratio(uint64(c[bench.OptSafe.Name].Size), uint64(base.Size)))
		if chk, ok := c[bench.DebugChecked.Name]; ok && !chk.CheckFailed {
			checked = append(checked, ratio(chk.Cycles, base.Cycles))
		}
	}
	e2e = []metric{
		{"sim_safe_overhead_pct", geoPct(safe), "%"},
		{"sim_checked_overhead_pct", geoPct(checked), "%"},
		{"sim_post_overhead_pct", geoPct(post), "%"},
		{"sim_safe_size_pct", geoPct(size), "%"},
	}
	for _, w := range append(workloads.All(), workloads.Hazards()...) {
		b, err := bench.MeasureRetained(w)
		if err != nil {
			return nil, nil, fmt.Errorf("retained %s: %w", w.Name, err)
		}
		layer = append(layer, metric{"heapdump.retained_bytes." + w.Name, float64(b), "bytes"})
	}
	return e2e, layer, nil
}

// zornTreatments is the SPARCstation 10 cell set of one Zorn workload that
// the tables print: every treatment, less the debug builds of a workload
// the paper has no -g numbers for.
func zornTreatments(w workloads.Workload) []bench.Treatment {
	var out []bench.Treatment
	for _, tr := range zornSS10 {
		if w.DebugUnavailable && !tr.Optimize {
			continue
		}
		out = append(out, tr)
	}
	return out
}

// checkCell compares one table cell with its workload's hand-written
// reference: the expected output, or the checker firing exactly where the
// workload seeds a bug.
func checkCell(w workloads.Workload, tr bench.Treatment, m *bench.Measurement) string {
	wantFail := (tr.Checked && w.CheckedFails) || (tr.Temporal && w.TemporalFails)
	switch {
	case m.CheckFailed != wantFail:
		return fmt.Sprintf("%s [%s]: checker fired = %v, want %v", w.Name, tr.Name, m.CheckFailed, wantFail)
	case !wantFail && m.Output != w.Want:
		return fmt.Sprintf("%s [%s]: output differs from the workload's expected output", w.Name, tr.Name)
	}
	return ""
}

func ratio(a, b uint64) float64 { return float64(a) / float64(b) }

// geoPct is the geometric mean of ratios, as a percentage overhead.
func geoPct(rs []float64) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, r := range rs {
		s += math.Log(r)
	}
	return (math.Exp(s/float64(len(rs))) - 1) * 100
}

// metricName turns a treatment label such as "-O, safe+post" into a
// metric-name component ("O_safe_post").
func metricName(label string) string {
	label = strings.TrimPrefix(label, "-")
	return strings.NewReplacer(", ", "_", "+", "_", " ", "_").Replace(label)
}

// controlKernelMs times a fixed pure-Go kernel that touches none of the
// repository's code: a sieve of Eratosthenes and a checksum over it. Its
// median over several repetitions puts the host's speed beside every
// record, so drift of the host from one day to the next can be told apart
// from a change in the code.
func controlKernelMs() float64 {
	const n = 2_000_000
	var times []float64
	var sum0 uint64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		composite := make([]bool, n)
		var sum uint64
		for i := 2; i < n; i++ {
			if composite[i] {
				continue
			}
			sum = sum*31 + uint64(i)
			for j := i * i; j < n; j += i {
				composite[j] = true
			}
		}
		times = append(times, float64(time.Since(t0))/1e6)
		if rep == 0 {
			sum0 = sum
		} else if sum != sum0 {
			panic("control kernel is not deterministic")
		}
	}
	sort.Float64s(times)
	return quantile(times, 0.5)
}
