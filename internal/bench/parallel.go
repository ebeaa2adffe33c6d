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

// parallelism reports the fan-out width MeasureAll will use.
func parallelism() int {
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
// over parallelism() workers. Results are positional: out[i] answers
// reqs[i]. Cells are shared-nothing (each owns its machine and heap) and
// land in the same content-addressed cache as Measure, so a parallel
// batch yields bit-identical measurements to a purely sequential run. On
// failure the first error in request order is returned, independent of
// completion order.
func MeasureAll(reqs []CellRequest) ([]*Measurement, error) {
	out := make([]*Measurement, len(reqs))
	errs := make([]error, len(reqs))
	par.ForEach(parallelism(), len(reqs), func(i int) {
		out[i], errs[i] = Measure(reqs[i].Workload, reqs[i].Treatment, reqs[i].Machine)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measureRetainedAll measures every workload's retained-at-exit value
// (MeasureRetained) in parallel, for the retained@exit column. Results
// are positional: out[i] answers ws[i].
func measureRetainedAll(ws []workloads.Workload) ([]uint64, error) {
	out := make([]uint64, len(ws))
	errs := make([]error, len(ws))
	par.ForEach(parallelism(), len(ws), func(i int) {
		out[i], errs[i] = MeasureRetained(ws[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
