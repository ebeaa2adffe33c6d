package bench

import (
	"sync/atomic"

	"gcsafety/internal/machine"
	"gcsafety/internal/par"
	"gcsafety/internal/workloads"
)

// parOverride, when positive, pins the harness's fan-out width (tests force
// determinism checks to a fixed width). Zero defers to the process-wide
// policy in internal/par.
var parOverride atomic.Int32

// setParallelism overrides how many cells MeasureAll computes concurrently.
// n <= 0 restores the default (GCSAFETY_PARALLEL, else GOMAXPROCS).
func setParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parOverride.Store(int32(n))
}

// Parallelism reports the fan-out width MeasureAll will use.
func Parallelism() int {
	if n := parOverride.Load(); n > 0 {
		return int(n)
	}
	return par.Default()
}

// CellRequest names one (workload, treatment, machine) cell.
type CellRequest struct {
	Workload  workloads.Workload
	Treatment Treatment
	Machine   machine.Config
}

// MeasureAll measures every requested cell, fanning the cache misses out
// over Parallelism() workers. Results are positional: out[i] answers
// reqs[i]. Cells are shared-nothing (each owns its machine and heap) and
// land in the same content-addressed cache as Measure, so a parallel
// prefetch followed by sequential Measure calls yields bit-identical
// measurements to a purely sequential run. On failure the first error in
// request order is returned, independent of completion order.
func MeasureAll(reqs []CellRequest) ([]*Measurement, error) {
	out := make([]*Measurement, len(reqs))
	errs := make([]error, len(reqs))
	par.ForEach(Parallelism(), len(reqs), func(i int) {
		out[i], errs[i] = Measure(reqs[i].Workload, reqs[i].Treatment, reqs[i].Machine)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefetch warms the cell cache for every (workload, treatment) pair a
// table is about to assemble, in parallel. Tables call it first and then
// run their original sequential assembly against the warm cache: the
// rendered output is byte-identical to a sequential build by construction,
// because assembly order never changes — only cache-fill order does.
func prefetch(cfg machine.Config, forWorkload func(w workloads.Workload) []Treatment) error {
	var reqs []CellRequest
	for _, w := range workloads.All() {
		for _, tr := range forWorkload(w) {
			reqs = append(reqs, CellRequest{Workload: w, Treatment: tr, Machine: cfg})
		}
	}
	_, err := MeasureAll(reqs)
	return err
}

// measureRetainedAll measures every workload's retained-at-exit value
// (MeasureRetained) in parallel, so the profiled runs behind the
// retained@exit column come off the table's sequential assembly path the
// same way prefetch takes the cells off it. Results are positional:
// out[i] answers ws[i] — tables index into it instead of re-asking, since
// even a cache hit pays the content-addressed key's source hash.
func measureRetainedAll(ws []workloads.Workload) ([]uint64, error) {
	out := make([]uint64, len(ws))
	errs := make([]error, len(ws))
	par.ForEach(Parallelism(), len(ws), func(i int) {
		out[i], errs[i] = MeasureRetained(ws[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
