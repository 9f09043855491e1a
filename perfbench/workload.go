package main

import (
	"fmt"
	"time"

	"cacheagg"
	"cacheagg/internal/serve"
)

// workload is one traffic mix the benchmark drives. README.md gives the
// reason each was chosen and what it isolates.
type workload struct {
	name string
	// ingest selects the durable-ingest loop; otherwise the workload
	// queries /v1/aggregate.
	ingest bool
	// clients is the closed-loop client count (at most nproc = 2).
	clients int
	// dist, rows and keys describe the hosted dataset (serve workloads)
	// or the key stream of each session (ingest).
	dist string
	rows int
	keys uint64
	// routine pins the execution routine on the wire ("" = auto).
	routine string
	// pushRows is the block size of one ingest push; rows/pushRows pushes
	// make one session. Serve workloads use it for the stream session the
	// traced run measures off their query path.
	pushRows int
}

// Ingest session shape: a window query after every queryEvery-th push, a
// seal after every sealEvery-th, a finish at the end.
const (
	queryEvery  = 4
	sealEvery   = 16
	queryWindow = 4
	morselRows  = 4096
)

var workloads = []workload{
	{
		name:    "serve-highk",
		clients: 2, dist: "uniform", rows: 1 << 20, keys: 1 << 17, pushRows: 8192,
	},
	{
		name:    "serve-skew",
		clients: 2, dist: "zipf", rows: 1 << 20, keys: 512, pushRows: 8192,
	},
	{
		name:    "serve-spill",
		clients: 2, dist: "uniform", rows: 1 << 20, keys: 1 << 17, routine: "sort-spill", pushRows: 8192,
	},
	{
		name:    "ingest-strings",
		ingest:  true,
		clients: 1, dist: "zipf", rows: 128 * 8192, keys: 1 << 16, pushRows: 8192,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// queryAggs is the aggregate list of every query: count, sum(col 0),
// avg(col 1) on serve workloads.
var queryAggs = []serve.AggRef{{Func: "count"}, {Func: "sum", Col: 0}, {Func: "avg", Col: 1}}

// ingestAggs is the aggregate list of every ingest session.
var ingestAggs = []serve.AggRef{{Func: "count"}, {Func: "sum", Col: 0}}

// specsOf converts wire aggregates to operator specs.
func specsOf(refs []serve.AggRef) []cacheagg.AggSpec {
	out := make([]cacheagg.AggSpec, len(refs))
	for i, r := range refs {
		switch r.Func {
		case "count":
			out[i] = cacheagg.AggSpec{Func: cacheagg.Count}
		case "sum":
			out[i] = cacheagg.AggSpec{Func: cacheagg.Sum, Col: r.Col}
		case "avg":
			out[i] = cacheagg.AggSpec{Func: cacheagg.Avg, Col: r.Col}
		default:
			panic("perfbench: aggregate " + r.Func + " not used by any workload")
		}
	}
	return out
}

// serverDefaults are cmd/aggserve's default flag values. The ingest
// directory is the one setting aggserve leaves empty by default; the
// benchmark sets it so /v1/ingest is served, with checkpoint fsyncs on.
type serverDefaults struct {
	BudgetBytes      int64         `json:"budget_bytes"`
	MaxQueue         int           `json:"queue"`
	MaxWait          time.Duration `json:"max_wait_ns"`
	QueryWorkers     int           `json:"query_workers"`
	QueryCacheBytes  int           `json:"query_cache_bytes"`
	ResultCacheBytes int64         `json:"result_cache_bytes"`
	DefaultDeadline  time.Duration `json:"default_deadline_ns"`
	MaxDeadline      time.Duration `json:"max_deadline_ns"`
	IngestNoSync     bool          `json:"ingest_no_sync"`
	TracerCapacity   int           `json:"tracer_capacity"`
}

var aggserveDefaults = serverDefaults{
	BudgetBytes:      256 << 20,
	MaxQueue:         64,
	MaxWait:          5 * time.Second,
	QueryWorkers:     2,
	QueryCacheBytes:  256 << 10,
	ResultCacheBytes: 16 << 20,
	DefaultDeadline:  10 * time.Second,
	MaxDeadline:      60 * time.Second,
	IngestNoSync:     false,
	TracerCapacity:   1 << 14,
}

func (d serverDefaults) admission() serve.AdmitConfig {
	return serve.AdmitConfig{BudgetBytes: d.BudgetBytes, MaxQueue: d.MaxQueue, MaxWait: d.MaxWait}
}

func (d serverDefaults) config(reg *serve.Registry, ingestDir string) serve.Config {
	return serve.Config{
		Registry:         reg,
		Admission:        d.admission(),
		QueryWorkers:     d.QueryWorkers,
		QueryCacheBytes:  d.QueryCacheBytes,
		ResultCacheBytes: d.ResultCacheBytes,
		DefaultDeadline:  d.DefaultDeadline,
		MaxDeadline:      d.MaxDeadline,
		Tracer:           cacheagg.NewTracer(d.TracerCapacity),
		IngestDir:        ingestDir,
		IngestNoSync:     d.IngestNoSync,
	}
}

// operatorOptions are the Options the server hands AggregateContext for a
// query over rows rows with the given routine: its workers, cache, routine
// and the admission estimate as the memory budget (the full grant).
func (d serverDefaults) operatorOptions(rows, aggs int, routine cacheagg.Routine) cacheagg.Options {
	return cacheagg.Options{
		Workers:           d.QueryWorkers,
		CacheBytes:        d.QueryCacheBytes,
		Routine:           routine,
		MemoryBudgetBytes: serve.EstimateCost(rows, aggs, d.QueryWorkers, d.QueryCacheBytes),
	}
}

func parseRoutine(s string) cacheagg.Routine {
	switch s {
	case "sort-spill":
		return cacheagg.RoutineSortSpill
	case "partitioned":
		return cacheagg.RoutinePartitioned
	case "global":
		return cacheagg.RoutineGlobal
	default:
		return cacheagg.RoutineAuto
	}
}
