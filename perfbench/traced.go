package main

// The traced run. It first drives the workload's HTTP request untraced
// with one client for a quarter of the time, then repeats traced
// iterations for the rest: each sends the same HTTP request inside a span
// and calls each layer's public functions on the same inputs inside spans
// of their own. The per-layer metrics come from those spans and from the
// counters the calls return; the gap between the traced and untraced
// request latencies is the tracing overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cacheagg"
	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/partition"
	"cacheagg/internal/serve"
)

// perLayer are the metrics a --trace 1 run reports, in BENCHMARK.json's
// order.
var perLayer = []string{
	"serve.decode_ms", "serve.self_ms", "serve.response_bytes_per_group",
	"serve.admit_wait_ms", "serve.queued_share",
	"core.execute_ms", "core.intake_ms", "core.scatter_ms", "core.build_ms", "core.split_ms",
	"core.passes", "core.partitioned_share", "core.mean_alpha", "core.tables_emitted",
	"core.allocs_per_row", "core.alloc_bytes_per_row",
	"core.routine_count.partitioned", "core.routine_count.global", "core.routine_count.sort-spill",
	"hashfn.ns_per_row", "hashtable.insert_ns_per_row", "partition.scatter_ns_per_row",
	"external.execute_ms", "external.spill_ms", "external.merge_ms",
	"external.spilled_bytes_per_row", "external.merge_levels",
	"memgov.peak_reserved_mb",
	"intern.encode_ns_per_row", "intern.new_key_share",
	"stream.push_ms", "stream.seal_ms", "stream.snapshot_ms", "stream.finish_ms",
	"stream.backpressure_per_push", "stream.checkpoint_bytes_per_row",
	"trace.untraced_request_ms", "trace.traced_request_ms", "trace.overhead_ms",
}

const (
	// spillChunks is the number of chunks the spilling external
	// measurement splits its input into.
	spillChunks = 8
	// offPathBlocks is how many blocks the interning and streaming
	// measured on serve workloads take: two seals' worth of pushes.
	offPathBlocks = 2 * sealEvery
)

// tracedRun holds the inputs and the samples of one traced run. It runs
// on one goroutine.
type tracedRun struct {
	p params
	f *fixture
	t *tally
	l *spanLog
	c *client

	// in is the input of the operator-level layers: the hosted dataset,
	// or for ingest one session's rows keyed by interned ids.
	in      cacheagg.Input
	refs    []serve.AggRef
	routine cacheagg.Routine
	want    intOracle
	// streamWant is the expected result of the blocks streamed on serve
	// workloads.
	streamWant intOracle
	qo         *queryOracle
	qc         *queryChecker
	io         ingestOracle

	ctrl   *serve.Controller
	kern   *agg.Kernels
	words  int
	table  *hashtable.Table
	hashes []uint64
	states [][]uint64

	// samples, one entry per call unless noted
	s       map[string][]float64
	routes  map[string]int
	traced  []time.Duration // the HTTP request of each traced iteration
	queued  int
	httpReq int
}

func (tr *tracedRun) add(name string, v float64) { tr.s[name] = append(tr.s[name], v) }

func runTraced(p params) (rep *report, err error) {
	f, err := newFixture(p.w, p.seed, filepath.Join(p.dir, "fixture"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()
	tr, err := newTracedRun(p, f)
	if err != nil {
		return nil, err
	}
	defer tr.c.closeIdle()

	// Untraced reference: the same request, one client, no layer calls.
	refDur := p.dur / 4
	var ref []time.Duration
	settle()
	if p.w.ingest {
		ref = driveIngest(f, tr.io, tr.t, refDur).pushes
	} else {
		ref = driveServe(f, tr.qo, tr.t, 1, 1, refDur).queries
	}

	start := time.Now()
	budget := p.dur - refDur
	var last time.Duration
	for r := int64(1); r == 1 || time.Since(start)+last <= budget; r++ {
		t0 := time.Now()
		if p.w.ingest {
			tr.ingestIteration(r)
		} else {
			tr.serveIteration(r)
		}
		last = time.Since(t0)
	}

	if p.spans != "" {
		if err := os.MkdirAll(filepath.Dir(p.spans), 0o755); err != nil {
			return nil, err
		}
		if err := tr.l.writeJSONL(p.spans); err != nil {
			return nil, err
		}
	}
	rep = tr.report(ref)
	rep.take(tr.t)
	return rep, nil
}

func newTracedRun(p params, f *fixture) (*tracedRun, error) {
	tr := &tracedRun{
		p: p, f: f, t: &tally{}, l: newSpanLog(), c: newClient(),
		routine: parseRoutine(p.w.routine),
		ctrl:    serve.NewController(aggserveDefaults.admission(), &serve.Metrics{}),
		s:       make(map[string][]float64), routes: make(map[string]int),
	}
	if p.w.ingest {
		// The operator-level layers see one session's rows keyed by the
		// ids a session interner assigns them.
		it := cacheagg.NewInterner()
		ids, err := it.EncodeColumns([]cacheagg.KeyColumn{{Strings: f.skeys}})
		if err != nil {
			return nil, err
		}
		tr.refs = ingestAggs
		tr.in = cacheagg.Input{GroupBy: ids, Columns: [][]int64{f.col0}, Aggregates: specsOf(ingestAggs)}
		tr.io = newIngestOracle(f.skeys, f.col0)
	} else {
		tr.refs = queryAggs
		tr.in = cacheagg.Input{GroupBy: f.ds.Keys, Columns: f.ds.Cols, Aggregates: specsOf(queryAggs)}
		tr.qo = newQueryOracle(f.ds.Keys, f.ds.Cols)
		tr.qc = newQueryChecker(tr.qo)
	}
	tr.want = newIntOracle(tr.in.GroupBy, tr.in.Columns, tr.refs)

	specs := make([]agg.Spec, len(tr.in.Aggregates))
	for i, a := range tr.in.Aggregates {
		kind := map[cacheagg.Func]agg.Kind{cacheagg.Count: agg.Count, cacheagg.Sum: agg.Sum, cacheagg.Avg: agg.Avg}[a.Func]
		specs[i] = agg.Spec{Kind: kind, Col: a.Col}
	}
	lay := agg.NewLayout(specs)
	tr.kern, tr.words = lay.Kernels(), lay.Words
	tr.table = hashtable.New(hashtable.Config{
		CapacityRows: hashtable.CapacityForCache(aggserveDefaults.QueryCacheBytes, tr.words),
		Blocks:       hashfn.Fanout,
		Words:        tr.words,
	})
	// The level-0 scatter moves each row's initial aggregate state, as
	// the operator's intake does.
	n := len(tr.in.GroupBy)
	tr.hashes = make([]uint64, n)
	tr.states = make([][]uint64, tr.words)
	for w, op := range lay.WordOps() {
		tr.states[w] = make([]uint64, n)
		for i := range tr.states[w] {
			if op.Src == agg.SrcOne {
				tr.states[w][i] = 1
			} else {
				tr.states[w][i] = uint64(tr.in.Columns[op.Col][i])
			}
		}
	}
	return tr, nil
}

// serveIteration is one traced /v1/aggregate request.
func (tr *tracedRun) serveIteration(r int64) {
	l, f := tr.l, tr.f
	root := l.start("request", 0, r)
	defer l.end(root)

	var status int
	var body []byte
	var lat time.Duration
	var err error
	l.timed("http.query", root, r, func() { status, body, lat, err = tr.c.post(f.url+"/v1/aggregate", f.query) })
	if err == nil {
		err = checkStatus(status, body)
	}
	var hdr jsonlHeader
	if err == nil {
		hdr, err = tr.qc.check(body)
	}
	if tr.t.note(err) {
		tr.traced = append(tr.traced, lat)
		tr.httpResponse(hdr, len(body))
	}

	var req *serve.Request
	dec := l.timed("serve.decode", root, r, func() { req, err = serve.DecodeRequest(bytes.NewReader(f.query), serve.Limits{}) })
	if err == nil && req.Dataset != "bench" {
		err = fmt.Errorf("decoded request names dataset %q", req.Dataset)
	}
	if tr.t.note(err) {
		tr.add("serve.decode_ms", ms(dec))
	}
	tr.admit(root, r)

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/aggregate", bytes.NewReader(f.query))
	hd := l.timed("serve.handler", root, r, func() { f.srv.Handler().ServeHTTP(rec, hreq) })
	err = checkStatus(rec.Code, rec.Body.Bytes())
	if err == nil {
		_, err = tr.qc.check(rec.Body.Bytes())
	}
	tr.t.note(err)

	exec := tr.operatorLayers(root, r)
	tr.add("serve.self_ms", ms(hd-dec-exec))

	// Interning and streaming are off the query path; they are measured
	// on the dataset's first offPathBlocks push-sized blocks.
	step := f.w.pushRows
	rows := min(len(f.ds.Keys), offPathBlocks*step)
	keys, cols := f.ds.Keys[:rows], [][]int64{f.ds.Cols[0][:rows], f.ds.Cols[1][:rows]}
	var blocks []cacheagg.Block
	for lo := 0; lo < rows; lo += step {
		hi := min(lo+step, rows)
		blocks = append(blocks, cacheagg.Block{Keys: keys[lo:hi], Columns: [][]int64{cols[0][lo:hi], cols[1][lo:hi]}})
	}
	tr.internLayer(root, r, len(blocks), func(i int) cacheagg.KeyColumn { return cacheagg.KeyColumn{Uint64s: blocks[i].Keys} })
	if tr.streamWant == nil {
		tr.streamWant = newIntOracle(keys, cols, tr.refs)
	}
	tr.streamLayer(root, r, blocks, func(res *cacheagg.StreamResult) error { return tr.streamWant.check(res.Groups, res.Aggs) })
}

// httpResponse records what a JSONL response header and size say.
func (tr *tracedRun) httpResponse(hdr jsonlHeader, size int) {
	tr.httpReq++
	if hdr.Queued {
		tr.queued++
	}
	if hdr.Groups > 0 {
		tr.add("serve.response_bytes_per_group", float64(size)/float64(hdr.Groups))
	}
}

// admit times one admission with the server's admission config and the
// server's cost estimate for this input.
func (tr *tracedRun) admit(root, r int64) {
	d := aggserveDefaults
	est := serve.EstimateCost(len(tr.in.GroupBy), len(tr.refs), d.QueryWorkers, d.QueryCacheBytes)
	var g *serve.Grant
	var err error
	tr.l.timed("serve.admit", root, r, func() {
		g, err = tr.ctrl.Admit(context.Background(), serve.PriorityNormal, est)
		if err == nil {
			g.Release()
		}
	})
	if tr.t.note(err) {
		tr.add("serve.admit_wait_ms", ms(g.WaitedFor))
	}
}

// operatorLayers calls core, external, hashfn, hashtable and partition
// on the run's input and returns the core.execute duration.
func (tr *tracedRun) operatorLayers(root, r int64) time.Duration {
	l, in := tr.l, tr.in
	rows := float64(len(in.GroupBy))

	opts := aggserveDefaults.operatorOptions(len(in.GroupBy), len(tr.refs), tr.routine)
	opts.CollectStats = true
	opts.Tracer = cacheagg.NewTracer(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *cacheagg.Result
	var err error
	exec := l.timed("core.execute", root, r, func() { res, err = cacheagg.AggregateContext(context.Background(), in, opts) })
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = tr.want.check(res.Groups, res.Aggs)
	}
	if tr.t.note(err) {
		st, ph := res.Stats, res.Phases
		tr.add("core.execute_ms", ms(exec))
		tr.add("core.intake_ms", ms(ph.Intake))
		tr.add("core.scatter_ms", ms(ph.Scatter))
		tr.add("core.build_ms", ms(ph.TableBuild))
		tr.add("core.split_ms", ms(ph.Split))
		tr.add("core.passes", float64(st.Passes))
		tr.add("core.partitioned_share", float64(st.PartitionedRows)/float64(max(st.HashedRows+st.PartitionedRows, 1)))
		tr.add("core.mean_alpha", st.MeanAlpha)
		tr.add("core.tables_emitted", float64(st.TablesEmitted))
		tr.add("core.allocs_per_row", float64(m1.Mallocs-m0.Mallocs)/rows)
		tr.add("core.alloc_bytes_per_row", float64(m1.TotalAlloc-m0.TotalAlloc)/rows)
		tr.add("memgov.peak_reserved_mb", float64(st.PeakReservedBytes)/(1<<20))
		tr.routes[st.Routine]++
	}

	// The served sort-spill path: the server's options and full grant.
	sopts := aggserveDefaults.operatorOptions(len(in.GroupBy), len(tr.refs), cacheagg.RoutineSortSpill)
	sopts.Tracer = cacheagg.NewTracer(0)
	d := l.timed("external.execute", root, r, func() { res, err = cacheagg.AggregateContext(context.Background(), in, sopts) })
	if err == nil {
		err = tr.want.check(res.Groups, res.Aggs)
	}
	if tr.t.note(err) {
		tr.add("external.execute_ms", ms(d))
		tr.add("external.merge_ms", ms(res.Phases.Merge))
	}
	// Under the full grant the served path keeps every partition resident
	// and writes nothing to disk, so the spill encode is measured on the
	// same input with a row budget of an eighth of it, which spills.
	etr := cacheagg.NewTracer(0)
	var eres *cacheagg.ExternalResult
	l.timed("external.aggregate", root, r, func() {
		eres, err = cacheagg.AggregateExternal(in,
			cacheagg.Options{Workers: opts.Workers, CacheBytes: opts.CacheBytes, Tracer: etr},
			cacheagg.ExternalOptions{MemoryBudgetRows: max(len(in.GroupBy)/spillChunks, 1)})
	})
	if err == nil {
		err = tr.want.check(eres.Groups, eres.Aggs)
	}
	if tr.t.note(err) {
		tr.add("external.spill_ms", ms(time.Duration(etr.Snapshot().PhaseNanos["spill"])))
		tr.add("external.spilled_bytes_per_row", float64(eres.Stats.SpilledBytes)/rows)
		tr.add("external.merge_levels", float64(eres.Stats.MergeLevels))
	}

	keys, hs := in.GroupBy, tr.hashes
	d = l.timed("hashfn.batch", root, r, func() {
		for lo := 0; lo < len(keys); lo += morselRows {
			hi := min(lo+morselRows, len(keys))
			hashfn.HashBatch(keys[lo:hi], hs[lo:hi])
		}
	})
	tr.add("hashfn.ns_per_row", float64(d)/rows)

	table := tr.table
	table.Reset()
	inserted := 0
	d = l.timed("hashtable.insert", root, r, func() {
		for lo := 0; lo < len(keys); lo += morselRows {
			hi := min(lo+morselRows, len(keys))
			for at := lo; at < hi; {
				n := table.InsertRawBatch(hs[at:hi], keys[at:hi], in.Columns, at, tr.kern)
				at += n
				inserted += n
				if at < hi {
					table.Reset()
				}
			}
		}
	})
	tr.add("hashtable.insert_ns_per_row", float64(d)/rows)
	if inserted != len(keys) {
		tr.t.note(fmt.Errorf("table absorbed %d rows, want %d", inserted, len(keys)))
	}

	scat := partition.New(partition.Config{Level: 0, Words: tr.words})
	views := make([][]uint64, tr.words)
	d = l.timed("partition.scatter", root, r, func() {
		for lo := 0; lo < len(keys); lo += morselRows {
			hi := min(lo+morselRows, len(keys))
			for w := range views {
				views[w] = tr.states[w][lo:hi]
			}
			scat.Scatter(hs[lo:hi], keys[lo:hi], views)
		}
	})
	tr.add("partition.scatter_ns_per_row", float64(d)/rows)
	if scat.Rows() != len(keys) {
		tr.t.note(fmt.Errorf("scatter took %d rows, want %d", scat.Rows(), len(keys)))
	}
	return exec
}

// internLayer encodes n key blocks through one fresh interner, as one
// ingest session does.
func (tr *tracedRun) internLayer(root, r int64, n int, block func(i int) cacheagg.KeyColumn) {
	it := cacheagg.NewInterner()
	var total time.Duration
	rows := 0
	for i := 0; i < n; i++ {
		col := block(i)
		var err error
		total += tr.l.timed("intern.encode", root, r, func() { _, err = it.EncodeColumns([]cacheagg.KeyColumn{col}) })
		tr.t.note(err)
		rows += col.Len()
	}
	tr.add("intern.encode_ns_per_row", float64(total)/float64(rows))
	tr.add("intern.new_key_share", float64(it.Len())/float64(rows))
}

// streamLayer runs one durable stream session (fsync on) over the blocks
// with the ingest op sequence, and checks its final result.
func (tr *tracedRun) streamLayer(root, r int64, blocks []cacheagg.Block, check func(*cacheagg.StreamResult) error) {
	sess := tr.l.start("stream.session", root, r)
	defer tr.l.end(sess)
	st := tr.beginStream(sess, r)
	if st == nil {
		return
	}
	for i, b := range blocks {
		tr.streamOps(st, sess, r, i, b)
	}
	tr.finishStream(st, sess, r, check)
}

// beginStream opens a stream with a session's options: the server's
// workers and cache, fsync on.
func (tr *tracedRun) beginStream(parent, r int64) *cacheagg.StreamAggregator {
	d := aggserveDefaults
	var st *cacheagg.StreamAggregator
	var err error
	tr.l.timed("stream.begin", parent, r, func() {
		st, err = cacheagg.BeginStream(cacheagg.StreamOptions{
			Dir:        filepath.Join(tr.p.dir, fmt.Sprintf("stream%d", r)),
			Aggregates: tr.in.Aggregates,
			Workers:    d.QueryWorkers,
			CacheBytes: d.QueryCacheBytes,
			NoSync:     d.IngestNoSync,
		})
	})
	if !tr.t.note(err) {
		return nil
	}
	return st
}

// streamOps pushes block i, then snapshots and seals on the ingest
// schedule. It returns the push's duration.
func (tr *tracedRun) streamOps(st *cacheagg.StreamAggregator, parent, r int64, i int, b cacheagg.Block) time.Duration {
	var err error
	d := tr.l.timed("stream.push", parent, r, func() {
		for {
			err = st.TryPush(b)
			var bp *cacheagg.BackpressureError
			if !errors.As(err, &bp) {
				return
			}
			time.Sleep(bp.RetryAfter)
		}
	})
	if tr.t.note(err) {
		tr.add("stream.push_ms", ms(d))
	}
	if (i+1)%queryEvery == 0 {
		var res *cacheagg.StreamResult
		sd := tr.l.timed("stream.snapshot", parent, r, func() { res, err = st.Snapshot(context.Background(), queryWindow) })
		if tr.t.note(err) && res.Len() == 0 {
			tr.t.note(errors.New("empty window snapshot"))
		}
		tr.add("stream.snapshot_ms", ms(sd))
	}
	if (i+1)%sealEvery == 0 {
		sd := tr.l.timed("stream.seal", parent, r, func() { _, err = st.Checkpoint(context.Background()) })
		if tr.t.note(err) {
			tr.add("stream.seal_ms", ms(sd))
		}
	}
	return d
}

// finishStream finishes the stream, checks its result and reads its
// counters.
func (tr *tracedRun) finishStream(st *cacheagg.StreamAggregator, parent, r int64, check func(*cacheagg.StreamResult) error) {
	var res *cacheagg.StreamResult
	var err error
	d := tr.l.timed("stream.finish", parent, r, func() { res, err = st.Finish(context.Background()) })
	if err == nil {
		err = check(res)
	}
	if tr.t.note(err) {
		tr.add("stream.finish_ms", ms(d))
	}
	stats := st.Stats()
	tr.add("stream.backpressure_per_push", float64(stats.Backpressure)/float64(max(stats.BlocksIngested, 1)))
	tr.add("stream.checkpoint_bytes_per_row", float64(stats.CheckpointBytes)/float64(max(stats.RowsIngested, 1)))
	tr.t.note(st.Close())
	tr.t.note(os.RemoveAll(st.Dir()))
}

// ingestIteration is one traced ingest session. Each push goes over HTTP
// inside a span, through the handler into a shadow session, through a
// replica of the handler's decode, through a session interner and into a
// direct stream, each in a span of its own.
func (tr *tracedRun) ingestIteration(r int64) {
	l, f := tr.l, tr.f
	root := l.start("request", 0, r)
	defer l.end(root)
	ic := &ingestClient{f: f, o: tr.io, c: tr.c, t: tr.t}
	name, shadow := fmt.Sprintf("t%d", r), fmt.Sprintf("h%d", r)

	aggs, _ := json.Marshal(ingestAggs)
	beginExtra := `,"key_type":"string","aggregates":` + string(aggs)
	l.timed("http.begin", root, r, func() { tr.t.note(ic.begin(name)) })
	tr.handle(root, r, "serve.handler.begin", ic.op(shadow, "begin", beginExtra), nil)

	it := cacheagg.NewInterner()
	st := tr.beginStream(root, r)
	if st == nil {
		return
	}
	var retries int
	encTotal := time.Duration(0)
	for i, push := range f.pushes {
		lo, hi := i*f.w.pushRows, min((i+1)*f.w.pushRows, len(f.skeys))
		var lat time.Duration
		var err error
		l.timed("http.push", root, r, func() { lat, err = ic.push(name, i, &retries) })
		if tr.t.note(err) {
			tr.traced = append(tr.traced, lat)
		}
		body := bytes.Join(pushBody(shadow, push), nil)
		hd := tr.handle(root, r, "serve.handler", body, nil)
		dec := l.timed("serve.decode", root, r, func() { err = decodePush(bytes.NewReader(body)) })
		tr.t.note(err)
		var ids []uint64
		enc := l.timed("intern.encode", root, r, func() {
			ids, err = it.EncodeColumns([]cacheagg.KeyColumn{{Strings: f.skeys[lo:hi]}})
		})
		tr.t.note(err)
		encTotal += enc
		sp := tr.streamOps(st, root, r, i, cacheagg.Block{Keys: ids, Columns: [][]int64{f.col0[lo:hi]}})
		tr.add("serve.decode_ms", ms(dec))
		tr.add("serve.self_ms", ms(hd-dec-enc-sp))
		if (i+1)%queryEvery == 0 {
			var status int
			var resp []byte
			l.timed("http.query", root, r, func() {
				status, resp, _, err = tr.c.post(f.url+"/v1/ingest", ic.op(name, "query", fmt.Sprintf(`,"window":%d`, queryWindow)))
			})
			if err == nil {
				err = checkStatus(status, resp)
			}
			if err == nil {
				err = checkWindow(resp)
			}
			if tr.t.note(err) {
				var hdr jsonlHeader
				_ = json.Unmarshal(resp[:bytes.IndexByte(resp, '\n')], &hdr) // checked by checkWindow
				tr.httpResponse(hdr, len(resp))
			}
		}
		if (i+1)%sealEvery == 0 {
			l.timed("http.seal", root, r, func() { _, err = ic.simple(ic.op(name, "seal", "")) })
			tr.t.note(err)
		}
	}
	l.timed("http.finish", root, r, func() { _, err := ic.finish(name); tr.t.note(err) })
	tr.handle(root, r, "serve.handler.finish", ic.op(shadow, "finish", ""), tr.io.check)
	tr.add("intern.encode_ns_per_row", float64(encTotal)/float64(len(f.skeys)))
	tr.add("intern.new_key_share", float64(it.Len())/float64(len(f.skeys)))
	tr.finishStream(st, root, r, func(res *cacheagg.StreamResult) error {
		cols, err := it.DecodeGroups(res.Groups, []cacheagg.KeyType{cacheagg.KeyString})
		if err != nil {
			return err
		}
		for i, key := range cols[0].Strings {
			want := tr.io[key]
			if res.Aggs[0][i] != want.count || res.Aggs[1][i] != want.sum0 {
				return fmt.Errorf("stream key %q: [%d %d], want [%d %d]", key, res.Aggs[0][i], res.Aggs[1][i], want.count, want.sum0)
			}
		}
		if len(cols[0].Strings) != len(tr.io) {
			return fmt.Errorf("stream has %d keys, want %d", len(cols[0].Strings), len(tr.io))
		}
		return nil
	})
	tr.admit(root, r)
	tr.operatorLayers(root, r)
}

// handle sends one ingest body through the server's handler into a
// recorder, inside a span, and checks the response with check (or for a
// 200 status when check is nil).
func (tr *tracedRun) handle(root, r int64, span string, body []byte, check func([]byte) error) time.Duration {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	d := tr.l.timed(span, root, r, func() { tr.f.srv.Handler().ServeHTTP(rec, req) })
	err := checkStatus(rec.Code, rec.Body.Bytes())
	if err == nil && check != nil {
		err = check(rec.Body.Bytes())
	}
	tr.t.note(err)
	return d
}

// decodePush replicates the JSON decode the ingest handler does for a
// push (the handler's decoder is not exported): read the body under the
// 1 MiB default limit, copy it to a string, decode with unknown fields
// disallowed, and reject trailing data.
func decodePush(r io.Reader) error {
	body, err := io.ReadAll(io.LimitReader(r, 1<<20+1))
	if err != nil {
		return err
	}
	if len(body) > 1<<20 {
		return errors.New("push body exceeds 1 MiB")
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var req struct {
		Session    string         `json:"session"`
		Op         string         `json:"op"`
		Aggregates []serve.AggRef `json:"aggregates,omitempty"`
		KeyType    string         `json:"key_type,omitempty"`
		Keys       []uint64       `json:"keys,omitempty"`
		SKeys      []string       `json:"skeys,omitempty"`
		Columns    [][]int64      `json:"columns,omitempty"`
		Window     int            `json:"window,omitempty"`
	}
	if err := dec.Decode(&req); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after push")
	}
	if req.Op != "push" || len(req.SKeys) == 0 || len(req.Columns) != 1 || len(req.Columns[0]) != len(req.SKeys) {
		return fmt.Errorf("decoded push is malformed: op %q, %d keys", req.Op, len(req.SKeys))
	}
	return nil
}

// report reduces the samples to the per-layer metrics: the median of
// each metric's samples, counts for the routine tally.
func (tr *tracedRun) report(ref []time.Duration) *report {
	rep := newReport()
	untraced, traced := quantileMs(ref, 0.5), quantileMs(tr.traced, 0.5)
	tr.add("trace.untraced_request_ms", untraced)
	tr.add("trace.traced_request_ms", traced)
	tr.add("trace.overhead_ms", traced-untraced)
	tr.add("serve.queued_share", float64(tr.queued)/float64(max(tr.httpReq, 1)))
	for _, rt := range []string{"partitioned", "global", "sort-spill"} {
		tr.add("core.routine_count."+rt, float64(tr.routes[rt]))
	}
	for _, name := range perLayer {
		xs := tr.s[name]
		if len(xs) == 0 {
			rep.valid = false
			rep.note("no samples for %s", name)
		}
		rep.add(name, quantile(xs, 0.5), unitOf(name))
		rep.note("layer %-34s %14.4f %-10s (n=%d)", name, quantile(xs, 0.5), unitOf(name), len(xs))
	}
	rep.note("tracing overhead: traced request p50 %.4f ms (n=%d) - untraced %.4f ms (n=%d) = %.4f ms",
		traced, len(tr.traced), untraced, len(ref), traced-untraced)
	self := tr.l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("self %-24s %12.3f ms over %d spans", n, ms(self[n]), len(tr.l.durations(n)))
	}
	if tr.p.spans != "" {
		rep.note("spans written to %s", tr.p.spans)
	}
	return rep
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "ns_per_row"):
		return "ns/row"
	case strings.HasSuffix(name, "bytes_per_row"):
		return "B/row"
	case strings.HasSuffix(name, "bytes_per_group"):
		return "B/group"
	case strings.HasSuffix(name, "allocs_per_row"):
		return "allocs/row"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_per_push"), name == "core.mean_alpha":
		return "ratio"
	default:
		return "count"
	}
}
