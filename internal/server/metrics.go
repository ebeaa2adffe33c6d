package server

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cluster"
	"gcsafety/internal/gc"
	"gcsafety/internal/pipeline"
)

// latencyBucketsMs are the upper bounds (inclusive, in milliseconds) of
// the request-latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMs = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// histogram is a fixed-bucket latency histogram safe for concurrent use.
type histogram struct {
	counts [len(latencyBucketsMs) + 1]atomic.Uint64
	sumNs  atomic.Uint64
	n      atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for ; i < len(latencyBucketsMs); i++ {
		if ms <= latencyBucketsMs[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNs.Add(uint64(d))
	h.n.Add(1)
}

// HistogramSnapshot is the JSON form of one latency histogram.
type HistogramSnapshot struct {
	// Buckets maps "le_<bound>" / "le_inf" to observation counts.
	Buckets map[string]uint64 `json:"buckets"`
	Count   uint64            `json:"count"`
	SumMs   float64           `json:"sum_ms"`
	MeanMs  float64           `json:"mean_ms"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: map[string]uint64{}}
	for i, b := range latencyBucketsMs {
		s.Buckets[bucketLabel(b)] = h.counts[i].Load()
	}
	s.Buckets["le_inf"] = h.counts[len(latencyBucketsMs)].Load()
	s.Count = h.n.Load()
	s.SumMs = float64(h.sumNs.Load()) / float64(time.Millisecond)
	if s.Count > 0 {
		s.MeanMs = s.SumMs / float64(s.Count)
	}
	return s
}

func bucketLabel(b float64) string {
	return "le_" + strconv.FormatFloat(b, 'g', -1, 64)
}

// endpointMetrics aggregates one route's traffic.
type endpointMetrics struct {
	requests atomic.Uint64 // all completed requests
	errors   atomic.Uint64 // 4xx/5xx responses
	latency  histogram
}

// EndpointSnapshot is the JSON form of one route's counters.
type EndpointSnapshot struct {
	Requests  uint64            `json:"requests"`
	Errors    uint64            `json:"errors"`
	LatencyMs HistogramSnapshot `json:"latency_ms"`
}

// runMetrics accumulates interpreter activity across /v1/run and
// /v1/matrix requests — the service-level view of collector behavior.
type runMetrics struct {
	programs    atomic.Uint64
	faults      atomic.Uint64
	instrs      atomic.Uint64
	cycles      atomic.Uint64
	collections atomic.Uint64
	objects     atomic.Uint64
	bytesAlloc  atomic.Uint64
}

func (r *runMetrics) record(instrs, cycles uint64, st gc.Stats, faulted bool) {
	r.programs.Add(1)
	if faulted {
		r.faults.Add(1)
	}
	r.instrs.Add(instrs)
	r.cycles.Add(cycles)
	r.collections.Add(st.Collections)
	r.objects.Add(st.ObjectsAlloced)
	r.bytesAlloc.Add(st.BytesAllocated)
}

// RunSnapshot is the JSON form of accumulated interpreter activity.
type RunSnapshot struct {
	Programs       uint64 `json:"programs"`
	Faults         uint64 `json:"faults"`
	Instrs         uint64 `json:"instrs"`
	Cycles         uint64 `json:"cycles"`
	Collections    uint64 `json:"gc_collections"`
	ObjectsAlloced uint64 `json:"gc_objects_allocated"`
	BytesAllocated uint64 `json:"gc_bytes_allocated"`
}

// heapMetrics accumulates /v1/heapdump activity: a snapshot count with a
// capture-duration histogram, plus the most recent snapshot's live-set
// gauges and the largest allocation epoch any snapshot has carried.
type heapMetrics struct {
	snapshots   atomic.Uint64
	liveObjects atomic.Uint64 // most recent snapshot
	liveBytes   atomic.Uint64 // most recent snapshot
	epochHW     atomic.Uint64 // max across snapshots
	duration    histogram
}

func (h *heapMetrics) record(objects int, bytes uint64, epoch uint32, d time.Duration) {
	h.snapshots.Add(1)
	h.liveObjects.Store(uint64(objects))
	h.liveBytes.Store(bytes)
	for {
		cur := h.epochHW.Load()
		if uint64(epoch) <= cur || h.epochHW.CompareAndSwap(cur, uint64(epoch)) {
			break
		}
	}
	h.duration.observe(d)
}

// HeapMetricsSnapshot is the JSON form of the /metrics heap section.
type HeapMetricsSnapshot struct {
	Snapshots      uint64            `json:"snapshots"`
	LiveObjects    uint64            `json:"live_objects"`
	LiveBytes      uint64            `json:"live_bytes"`
	EpochHighWater uint64            `json:"epoch_high_water"`
	DurationMs     HistogramSnapshot `json:"snapshot_duration_ms"`
}

// PanicSnapshot describes the most recent recovered handler panic: the
// observability half of the recovery middleware, so a fleet operator can
// see *what* crashed without shelling into the box.
type PanicSnapshot struct {
	Endpoint string `json:"endpoint"`
	Value    string `json:"value"`
	Stack    string `json:"stack"`
	At       string `json:"at"` // RFC3339
}

// panicStackLimit bounds the captured stack so /metrics stays readable.
const panicStackLimit = 8 << 10

// metrics is the server-wide registry.
type metrics struct {
	start     time.Time
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	lastPanic *PanicSnapshot // guarded by mu
	shed      atomic.Uint64
	drained   atomic.Uint64
	panics    atomic.Uint64
	inflight  atomic.Int64
	runs      runMetrics
	heap      heapMetrics
}

// recordPanic captures a recovered handler panic into the registry.
func (m *metrics) recordPanic(endpoint string, value any, stack []byte) {
	m.panics.Add(1)
	if len(stack) > panicStackLimit {
		stack = stack[:panicStackLimit]
	}
	snap := &PanicSnapshot{
		Endpoint: endpoint,
		Value:    fmt.Sprint(value),
		Stack:    string(stack),
		At:       time.Now().UTC().Format(time.RFC3339),
	}
	m.mu.Lock()
	m.lastPanic = snap
	m.mu.Unlock()
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), endpoints: map[string]*endpointMetrics{}}
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{}
		m.endpoints[name] = em
	}
	return em
}

// Snapshot is the full /metrics document.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Shed          uint64                      `json:"shed"`
	// Drained counts requests refused with 503 because shutdown had begun.
	Drained  uint64 `json:"drained"`
	Draining bool   `json:"draining"`
	// Panics counts handler panics absorbed by the recovery middleware;
	// LastPanic carries the most recent one's stack.
	Panics    uint64         `json:"panics"`
	LastPanic *PanicSnapshot `json:"last_panic,omitempty"`
	InFlight  int64          `json:"in_flight"`
	Cache     artifact.Stats `json:"cache"`
	// DiskRecovery reports the disk tier's startup verification when one
	// is configured; DiskError explains a tier that failed to open.
	DiskRecovery *artifact.RecoverStats `json:"disk_recovery,omitempty"`
	DiskError    string                 `json:"disk_error,omitempty"`
	Compiles     uint64                 `json:"compiles"`
	Annotations  uint64                 `json:"annotations"`
	// Pipeline reports per-stage execution counters from the stage-graph
	// runner: calls, cache hits/misses, errors and cumulative duration for
	// each of lex/parse/typecheck/liveness/annotate/codegen/optimize/
	// peephole.
	Pipeline []pipeline.StageStat `json:"pipeline,omitempty"`
	// Elision aggregates the annotator's liveness-elision outcomes across
	// every elision-enabled annotate computation this server performed
	// (omitted until the first one).
	Elision *pipeline.ElisionStat `json:"elision,omitempty"`
	Runs    RunSnapshot           `json:"runs"`
	// Heap reports /v1/heapdump activity: snapshot counts, capture
	// durations, the most recent live set, and the epoch high-water mark.
	Heap HeapMetricsSnapshot `json:"heap"`
	// Cluster reports cache-peering health when this node is clustered:
	// membership, per-peer hit/error/breaker state, and the
	// fallback-vs-remote-hit split that measures dedup effectiveness.
	Cluster *cluster.Snapshot `json:"cluster,omitempty"`
}

func (m *metrics) snapshot(cache artifact.Stats, compiles, annotations uint64) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     map[string]EndpointSnapshot{},
		Shed:          m.shed.Load(),
		Drained:       m.drained.Load(),
		Panics:        m.panics.Load(),
		InFlight:      m.inflight.Load(),
		Cache:         cache,
		Compiles:      compiles,
		Annotations:   annotations,
		Runs: RunSnapshot{
			Programs:       m.runs.programs.Load(),
			Faults:         m.runs.faults.Load(),
			Instrs:         m.runs.instrs.Load(),
			Cycles:         m.runs.cycles.Load(),
			Collections:    m.runs.collections.Load(),
			ObjectsAlloced: m.runs.objects.Load(),
			BytesAllocated: m.runs.bytesAlloc.Load(),
		},
		Heap: HeapMetricsSnapshot{
			Snapshots:      m.heap.snapshots.Load(),
			LiveObjects:    m.heap.liveObjects.Load(),
			LiveBytes:      m.heap.liveBytes.Load(),
			EpochHighWater: m.heap.epochHW.Load(),
			DurationMs:     m.heap.duration.snapshot(),
		},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.LastPanic = m.lastPanic
	for name, em := range m.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Requests:  em.requests.Load(),
			Errors:    em.errors.Load(),
			LatencyMs: em.latency.snapshot(),
		}
	}
	return s
}
