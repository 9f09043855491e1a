package main

// Closed-loop load: each client sends its next request only after the
// previous response has been read to the last byte and checked.

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// tally counts operations and their failures; safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// note records one attempted operation and its outcome.
func (t *tally) note(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return err == nil
}

// loadResult is what one measured phase observed.
type loadResult struct {
	elapsed time.Duration
	// queries are the latencies of correct queries: /v1/aggregate on serve
	// workloads, window queries on ingest.
	queries []time.Duration
	// pushes and seals are the latencies of acknowledged ingest pushes
	// (backpressure retries included) and seals.
	pushes, seals []time.Duration
	// rows counts input rows behind the phase's results: rows aggregated by
	// correct queries (serve) or rows covered by acknowledged seals and
	// finishes (ingest). rowsElapsed is the time to the last such result.
	rows        int64
	rowsElapsed time.Duration
	// queued and waitMs come from the response headers of serve queries.
	queued int
	waitMs float64
	// retries counts push attempts refused with 429 backpressure.
	retries int
}

// queryOnce sends the workload's query and checks the response.
func queryOnce(f *fixture, qc *queryChecker, c *client) (time.Duration, jsonlHeader, error) {
	status, body, lat, err := c.post(f.url+"/v1/aggregate", f.query)
	if err != nil {
		return 0, jsonlHeader{}, err
	}
	if err := checkStatus(status, body); err != nil {
		return 0, jsonlHeader{}, err
	}
	hdr, err := qc.check(body)
	return lat, hdr, err
}

// driveServe runs n closed-loop query clients: warm queries each,
// unmeasured, then queries until dur has passed.
func driveServe(f *fixture, o *queryOracle, t *tally, n, warm int, dur time.Duration) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	clients := make([]*client, n)
	checkers := make([]*queryChecker, n)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].closeIdle()
		checkers[i] = newQueryChecker(o)
	}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *client, qc *queryChecker) {
			defer wg.Done()
			for j := 0; j < warm; j++ {
				_, _, err := queryOnce(f, qc, c)
				t.note(err)
			}
		}(clients[i], checkers[i])
	}
	wg.Wait()
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(c *client, qc *queryChecker) {
			defer wg.Done()
			for time.Since(start) < dur {
				lat, hdr, err := queryOnce(f, qc, c)
				if !t.note(err) {
					continue
				}
				mu.Lock()
				res.queries = append(res.queries, lat)
				res.rows += int64(f.w.rows)
				if hdr.Queued {
					res.queued++
					res.waitMs += hdr.WaitMs
				}
				mu.Unlock()
			}
		}(clients[i], checkers[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.rowsElapsed = res.elapsed
	return res
}

// ingestClient runs ingest sessions over one HTTP client.
type ingestClient struct {
	f *fixture
	o ingestOracle
	c *client
	t *tally
}

func (ic *ingestClient) op(session, op string, extra string) []byte {
	return []byte(fmt.Sprintf(`{"session":%q,"op":%q%s}`, session, op, extra))
}

// simple sends a begin or seal and checks for {"ok":true}.
func (ic *ingestClient) simple(body []byte) (time.Duration, error) {
	status, resp, lat, err := ic.c.post(ic.f.url+"/v1/ingest", body)
	if err == nil {
		err = checkStatus(status, resp)
	}
	if err == nil {
		var ack struct {
			OK bool `json:"ok"`
		}
		if json.Unmarshal(resp, &ack) != nil || !ack.OK {
			err = fmt.Errorf("not acknowledged: %.120q", resp)
		}
	}
	return lat, err
}

func (ic *ingestClient) begin(session string) error {
	aggs, _ := json.Marshal(ingestAggs)
	_, err := ic.simple(ic.op(session, "begin", `,"key_type":"string","aggregates":`+string(aggs)))
	return err
}

// push sends block i, retrying 429 backpressure after the hinted delay.
// The latency runs from the first attempt to the acknowledgement.
func (ic *ingestClient) push(session string, i int, retries *int) (time.Duration, error) {
	parts := pushBody(session, ic.f.pushes[i])
	t0 := time.Now()
	for {
		status, resp, _, err := ic.c.post(ic.f.url+"/v1/ingest", parts...)
		if err != nil {
			return 0, err
		}
		if status == 429 {
			if code, _ := errorCode(status, resp); code == "backpressure" {
				*retries++
				time.Sleep(retryDelay(resp))
				continue
			}
		}
		if err := checkStatus(status, resp); err != nil {
			return 0, err
		}
		var ack struct {
			OK bool `json:"ok"`
		}
		if json.Unmarshal(resp, &ack) != nil || !ack.OK {
			return 0, fmt.Errorf("push not acknowledged: %.120q", resp)
		}
		return time.Since(t0), nil
	}
}

// retryDelay reads retry_after_ms from a backpressure envelope, clamped
// to [1 ms, 100 ms].
func retryDelay(body []byte) time.Duration {
	var env struct {
		Error struct {
			RetryAfterMs int64 `json:"retry_after_ms"`
		} `json:"error"`
	}
	_ = json.Unmarshal(body, &env) // the code was already parsed from it
	d := time.Duration(env.Error.RetryAfterMs) * time.Millisecond
	return min(max(d, time.Millisecond), 100*time.Millisecond)
}

func (ic *ingestClient) query(session string) (time.Duration, error) {
	status, resp, lat, err := ic.c.post(ic.f.url+"/v1/ingest", ic.op(session, "query", fmt.Sprintf(`,"window":%d`, queryWindow)))
	if err == nil {
		err = checkStatus(status, resp)
	}
	if err == nil {
		err = checkWindow(resp)
	}
	return lat, err
}

func (ic *ingestClient) finish(session string) (time.Duration, error) {
	status, resp, lat, err := ic.c.post(ic.f.url+"/v1/ingest", ic.op(session, "finish", ""))
	if err == nil {
		err = checkStatus(status, resp)
	}
	if err == nil {
		err = ic.o.check(resp)
	}
	return lat, err
}

// session runs one session: begin, every push with a window query after
// every queryEvery-th and a seal after every sealEvery-th, then finish.
// It stops early, leaving the session open, once stop reports true.
// Every acknowledged seal or finish adds the rows it made durable.
func (ic *ingestClient) session(name string, res *loadResult, stop func() bool, start time.Time) {
	if !ic.t.note(ic.begin(name)) {
		return
	}
	pending := int64(0)
	durable := func() {
		res.rows += pending
		res.rowsElapsed = time.Since(start)
		pending = 0
	}
	for i := range ic.f.pushes {
		if stop() {
			return
		}
		lat, err := ic.push(name, i, &res.retries)
		if !ic.t.note(err) {
			continue
		}
		res.pushes = append(res.pushes, lat)
		pending += int64(ic.f.blockRows(i))
		if (i+1)%queryEvery == 0 {
			lat, err := ic.query(name)
			if ic.t.note(err) {
				res.queries = append(res.queries, lat)
			}
		}
		if (i+1)%sealEvery == 0 {
			lat, err := ic.simple(ic.op(name, "seal", ""))
			if ic.t.note(err) {
				res.seals = append(res.seals, lat)
				durable()
			}
		}
	}
	if _, err := ic.finish(name); ic.t.note(err) {
		durable()
	}
}

// driveIngest runs one closed-loop ingest client: a short unmeasured
// warm-up session, then whole sessions until dur has passed.
func driveIngest(f *fixture, o ingestOracle, t *tally, dur time.Duration) *loadResult {
	c := newClient()
	defer c.closeIdle()
	ic := &ingestClient{f: f, o: o, c: c, t: t}
	warm := &loadResult{}
	pushed := 0
	ic.session("warm", warm, func() bool { pushed++; return pushed > sealEvery }, time.Now())

	res := &loadResult{}
	start := time.Now()
	stop := func() bool { return time.Since(start) >= dur }
	for s := 0; !stop(); s++ {
		ic.session(fmt.Sprintf("s%d", s), res, stop, start)
	}
	res.elapsed = time.Since(start)
	return res
}
