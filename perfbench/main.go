// Command perfbench is the repository's benchmark: it serves generated
// datasets from an in-process aggregation server (cmd/aggserve's default
// configuration) behind a loopback listener, drives it closed-loop with
// request bodies built from a seed, checks every response against an
// oracle, and prints one JSON result line.
//
//	perfbench --workload serve-highk --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics, timed by spans around
// calls into each layer's public functions on the same inputs, and writes
// the spans as JSONL under .bench_build/spans/. README.md describes the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run sets up at least setupMinReps times and until setupBudget of
// set-up time has accumulated, but at most setupMaxReps times; setup_s is
// the median. A serve set-up takes about ten milliseconds, so one alone
// reads mostly scheduling noise.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupBudget  = 1500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the metrics of its JSON line, in order,
// and notes printed above it.
type report struct {
	names     []string
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	firstErr  error
	// valid is false when a metric the result needs has no samples.
	valid bool
}

func newReport() *report { return &report{metrics: make(map[string]metric), valid: true} }

func (r *report) add(name string, v float64, unit string) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{v, unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) take(t *tally) {
	r.attempted, r.failed, r.firstErr = t.attempted, t.failed, t.firstErr
}

// params is one run's configuration.
type params struct {
	w     workload
	seed  uint64
	dur   time.Duration
	trace bool
	// dir is the run's scratch directory; spans is where the traced run
	// writes its spans ("" = nowhere).
	dir   string
	spans string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-highk | serve-skew | serve-spill | ingest-strings")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}
	base, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// Spill files of the external layer go to the system temp directory;
	// keep them inside the run's scratch.
	tmp := filepath.Join(dir, "tmp")
	err = os.MkdirAll(tmp, 0o755)
	if err == nil {
		err = os.Setenv("TMPDIR", tmp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	p := params{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir}
	if p.trace {
		p.spans = filepath.Join(base, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	total0, steal0 := cpuTimes()
	rep, err := execute(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m := newRunMeta(w, *seed, p.dur, p.trace)
	if total1, steal1 := cpuTimes(); total1 > total0 {
		m.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	meta, _ := json.Marshal(map[string]any{"meta": m})
	fmt.Fprintln(stdout, string(meta))
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	if rep.firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", rep.firstErr)
	}
	fmt.Fprintln(stdout, resultLine(rep))
	return 0
}

// execute runs one workload, traced or not.
func execute(p params) (*report, error) {
	if p.trace {
		return runTraced(p)
	}
	return runUntraced(p)
}

// resultLine renders the final JSON object.
func resultLine(r *report) string {
	metrics := make(map[string]metric, len(r.names))
	for _, n := range r.names {
		metrics[n] = r.metrics[n]
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.valid && r.attempted > 0, max(r.attempted, 1), r.failed, metrics})
	return string(b)
}

// setUp builds the fixture repeatedly and keeps the last one; the others
// are torn down outside the timing. It returns every set-up time.
//
// The collector runs between set-ups, not during them. A collection inside
// one, or a page fault on memory the background scavenger has just
// returned to the kernel (it scavenges only while the collector is on),
// would make a set-up's time depend on when the collector ran and on the
// load on the machine far more than on the set-up work.
func setUp(p params) (*fixture, []time.Duration, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var times []time.Duration
	var f *fixture
	for i, total := 0, time.Duration(0); i < setupMinReps || (total < setupBudget && i < setupMaxReps); i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		f, err = newFixture(p.w, p.seed, filepath.Join(p.dir, fmt.Sprintf("fixture%d", i)))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		total += times[i]
	}
	return f, times, nil
}

// settle collects the garbage of set-up so the measured phase starts from
// a clean heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runUntraced measures the end-to-end metrics.
func runUntraced(p params) (rep *report, err error) {
	f, setup, err := setUp(p)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()
	t := &tally{}
	var drive func() *loadResult
	if p.w.ingest {
		o := newIngestOracle(f.skeys, f.col0)
		drive = func() *loadResult { return driveIngest(f, o, t, p.dur) }
	} else {
		o := newQueryOracle(f.ds.Keys, f.ds.Cols)
		drive = func() *loadResult { return driveServe(f, o, t, p.w.clients, 2, p.dur) }
	}
	settle()
	sampler := startRSS()
	res := drive()
	rss := sampler.stop()

	rep = newReport()
	rep.take(t)
	rep.add("query_p50_ms", quantileMs(res.queries, 0.5), "ms")
	rep.add("queries_per_s", float64(len(res.queries))/res.elapsed.Seconds(), "1/s")
	rowsPerS := 0.0
	if res.rowsElapsed > 0 {
		rowsPerS = float64(res.rows) / res.rowsElapsed.Seconds()
	}
	rep.add("rows_per_s", rowsPerS, "rows/s")
	rep.add("setup_s", quantileMs(setup, 0.5)/1000, "s")
	rep.add("peak_rss_mb", quantile(rss, 0.95), "MiB")
	rep.valid = len(res.queries) > 0 && res.rows > 0

	for _, n := range rep.names {
		rep.note("metric %-16s %14.4f %s", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	rep.note("metric %-16s %14.4f ms (n=%d; a p90 wants at least 100)", "query_p90_ms", quantileMs(res.queries, 0.9), len(res.queries))
	rep.note("samples: %d queries in %.2f s; %d rss samples, max %.1f MiB",
		len(res.queries), res.elapsed.Seconds(), len(rss), quantile(rss, 1))
	rep.note("setup reps %d, median %.4f s, range %.4f-%.4f s", len(setup),
		quantileMs(setup, 0.5)/1000, quantileMs(setup, 0)/1000, quantileMs(setup, 1)/1000)
	if p.w.ingest {
		rep.note("metric %-16s %14.4f ms (n=%d)", "push_p50_ms", quantileMs(res.pushes, 0.5), len(res.pushes))
		rep.note("metric %-16s %14.4f ms (n=%d)", "push_p90_ms", quantileMs(res.pushes, 0.9), len(res.pushes))
		rep.note("metric %-16s %14.4f ms (n=%d)", "seal_p50_ms", quantileMs(res.seals, 0.5), len(res.seals))
		rep.note("metric %-16s %14.1f rows/s (%d durable rows in %.2f s)", "durable_rows_per_s", rowsPerS, res.rows, res.rowsElapsed.Seconds())
		rep.note("backpressure retries %d", res.retries)
	} else {
		rep.note("queued responses %d, header wait %.3f ms total", res.queued, res.waitMs)
	}
	rep.note("metric %-16s %14.6f ratio (%d failed of %d attempted)", "failed_ratio",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	return rep, nil
}
