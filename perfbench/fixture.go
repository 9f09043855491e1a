package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cacheagg/internal/datagen"
	"cacheagg/internal/serve"
)

// fixture is one set-up instance of a workload: an in-process server
// behind a loopback listener, and the request bodies built from the seed.
type fixture struct {
	w    workload
	seed uint64
	dir  string // scratch for ingest sessions, spills and spans

	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error

	// Serve workloads: the hosted dataset and the query body.
	ds    *serve.Dataset
	query []byte

	// Ingest workloads: one session's blocks and their push bodies.
	skeys  []string
	col0   []int64
	pushes [][]byte // each `{"op":"push",...}`; the session name is spliced in
}

// newFixture generates the workload's inputs from seed, registers them
// with a fresh server and pre-encodes every request body. Everything it
// does counts as set-up time.
func newFixture(w workload, seed uint64, dir string) (*fixture, error) {
	f := &fixture{w: w, seed: seed, dir: dir}
	var reg *serve.Registry
	var err error
	if w.ingest {
		f.buildIngest()
		reg, err = serve.NewRegistry()
	} else {
		f.ds, err = serve.ParseDatasetSpec(fmt.Sprintf("bench=%s:%d:%d:%d", w.dist, w.rows, w.keys, seed))
		if err != nil {
			return nil, err
		}
		reg, err = serve.NewRegistry(f.ds)
		if err == nil {
			f.query, err = json.Marshal(serve.Request{
				Dataset: "bench", Aggregates: queryAggs, NoCache: true, Routine: w.routine,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	if err := f.start(reg); err != nil {
		return nil, err
	}
	return f, nil
}

// buildIngest generates one session's string keys (datagen.StringKey of
// zipf keys) and value column, and pre-encodes every push body.
func (f *fixture) buildIngest() {
	w := f.w
	raw := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: w.rows, K: w.keys, Seed: f.seed})
	f.skeys = make([]string, len(raw))
	f.col0 = make([]int64, len(raw))
	for i, k := range raw {
		f.skeys[i] = datagen.StringKey(k)
		f.col0[i] = int64(k%1000) + int64(i%7)
	}
	for lo := 0; lo < len(raw); lo += w.pushRows {
		hi := min(lo+w.pushRows, len(raw))
		body, err := json.Marshal(struct {
			Op      string    `json:"op"`
			SKeys   []string  `json:"skeys"`
			Columns [][]int64 `json:"columns"`
		}{"push", f.skeys[lo:hi], [][]int64{f.col0[lo:hi]}})
		if err != nil {
			panic(err) // strings and ints always marshal
		}
		f.pushes = append(f.pushes, body)
	}
}

// blockRows is the row count of ingest push i.
func (f *fixture) blockRows(i int) int {
	return min((i+1)*f.w.pushRows, len(f.skeys)) - i*f.w.pushRows
}

func (f *fixture) start(reg *serve.Registry) error {
	if err := os.MkdirAll(filepath.Join(f.dir, "ingest"), 0o755); err != nil {
		return err
	}
	srv, err := serve.NewServer(aggserveDefaults.config(reg, filepath.Join(f.dir, "ingest")))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv = srv
	f.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.url = "http://" + ln.Addr().String()
	f.done = make(chan error, 1)
	go func() { f.done <- f.hs.Serve(ln) }()
	return nil
}

// close drains the server, stops the listener and waits for it to exit,
// then removes the fixture's scratch directory.
func (f *fixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := f.srv.Drain(ctx)
	if serr := f.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-f.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// pushBody splices the session name into a pre-encoded push body.
func pushBody(session string, push []byte) [][]byte {
	return [][]byte{[]byte(`{"session":"` + session + `",`), push[1:]}
}

// client is one closed-loop HTTP client with a reusable response buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4, DisableCompression: true,
	}}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response. The latency runs
// from the send to the last response byte. The returned body aliases the
// client's buffer until the next post.
func (c *client) post(url string, parts ...[]byte) (int, []byte, time.Duration, error) {
	var n int64
	readers := make([]io.Reader, len(parts))
	for i, p := range parts {
		n += int64(len(p))
		readers[i] = bytes.NewReader(p)
	}
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(readers...))
	if err != nil {
		return 0, nil, 0, err
	}
	req.ContentLength = n
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), lat, nil
}
