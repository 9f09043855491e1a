package main

// Correctness oracle. Expected results are computed at set-up from the
// generated inputs, keyed by group, and every response is checked against
// them without depending on row order: the order of leaf buckets is not
// deterministic with more than one worker. Checks run after a request's
// latency is taken, never inside it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"cacheagg/internal/serve"
)

// queryGroup is one group's expected count, sum(col 0) and sum(col 1).
type queryGroup struct {
	count, sum0, sum1 int64
}

// queryOracle is the expected result of count, sum(col 0), avg(col 1)
// grouped by key: index maps each key to its position in want.
type queryOracle struct {
	index map[uint64]int32
	want  []queryGroup
}

func newQueryOracle(keys []uint64, cols [][]int64) *queryOracle {
	o := &queryOracle{index: make(map[uint64]int32)}
	for i, k := range keys {
		j, ok := o.index[k]
		if !ok {
			j = int32(len(o.want))
			o.index[k] = j
			o.want = append(o.want, queryGroup{})
		}
		g := &o.want[j]
		g.count++
		g.sum0 += cols[0][i]
		g.sum1 += cols[1][i]
	}
	return o
}

// queryChecker checks /v1/aggregate responses against an oracle. It keeps
// its scratch across calls so that checking a 131k-row response makes no
// garbage for the server under test to collect; one per client.
type queryChecker struct {
	o    *queryOracle
	seen []uint32 // seen[j] == gen: group j already received in this response
	gen  uint32
	row  jsonlRow
}

func newQueryChecker(o *queryOracle) *queryChecker {
	return &queryChecker{o: o, seen: make([]uint32, len(o.want))}
}

// check verifies a response body: every expected group exactly once with
// its exact count, sum and average.
func (c *queryChecker) check(body []byte) (jsonlHeader, error) {
	c.gen++
	row := &c.row
	hdr, n, err := walkJSONL(body, func(line []byte) error {
		if err := parseRow(line, row); err != nil {
			return err
		}
		j, ok := c.o.index[row.G]
		if !ok {
			return fmt.Errorf("unexpected group %d", row.G)
		}
		want := c.o.want[j]
		switch {
		case c.seen[j] == c.gen:
			return fmt.Errorf("group %d repeated", row.G)
		case len(row.A) != 3 || len(row.F) != 3:
			return fmt.Errorf("group %d: %d int and %d float aggregates, want 3 and 3", row.G, len(row.A), len(row.F))
		case row.A[0] != want.count || row.A[1] != want.sum0 || row.A[2] != want.sum1/want.count:
			return fmt.Errorf("group %d: aggregates %v, want [%d %d %d]",
				row.G, row.A, want.count, want.sum0, want.sum1/want.count)
		case !closeTo(row.F[2], float64(want.sum1)/float64(want.count)):
			return fmt.Errorf("group %d: avg %v, want %v", row.G, row.F[2], float64(want.sum1)/float64(want.count))
		}
		c.seen[j] = c.gen
		return nil
	})
	if err != nil {
		return hdr, err
	}
	if n != len(c.o.want) {
		return hdr, fmt.Errorf("%d groups, want %d", n, len(c.o.want))
	}
	return hdr, nil
}

// ingestGroup is one string key's expected count and sum(col 0).
type ingestGroup struct {
	count, sum0 int64
}

// ingestOracle is the expected finish result of an ingest session.
type ingestOracle map[string]ingestGroup

func newIngestOracle(skeys []string, col0 []int64) ingestOracle {
	o := make(ingestOracle)
	for i, k := range skeys {
		g := o[k]
		g.count++
		g.sum0 += col0[i]
		o[k] = g
	}
	return o
}

// knownCodes is the server's error taxonomy, read from its sentinels. A
// non-200 response with one of these codes is a typed failure; anything
// else is an untyped one.
var knownCodes = func() map[string]bool {
	m := make(map[string]bool)
	for _, e := range []*serve.Error{
		serve.ErrBadRequest, serve.ErrRequestTooLarge, serve.ErrUnknownDataset,
		serve.ErrAdmissionQueueFull, serve.ErrBudgetUnavailable, serve.ErrShed,
		serve.ErrDraining, serve.ErrDeadline, serve.ErrCancelled,
		serve.ErrInternal, serve.ErrPanic, serve.ErrIngestDisabled,
		serve.ErrUnknownSession, serve.ErrSessionExists, serve.ErrStreamFinished,
		serve.ErrBackpressure,
	} {
		m[e.Code] = true
	}
	return m
}()

// errorCode extracts the typed error code of a non-200 response, or
// returns an error naming the response as untyped.
func errorCode(status int, body []byte) (string, error) {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || !knownCodes[env.Error.Code] {
		return "", fmt.Errorf("untyped error: status %d, body %.120q", status, body)
	}
	return env.Error.Code, nil
}

// checkStatus turns a non-200 response into an error: typed ("refused")
// or untyped. Every non-200 response is a failed operation here; the one
// retried outcome, push backpressure, is handled by the ingest loop
// before it gets here.
func checkStatus(status int, body []byte) error {
	if status == 200 {
		return nil
	}
	code, err := errorCode(status, body)
	if err != nil {
		return err
	}
	return fmt.Errorf("typed error %s (status %d)", code, status)
}

// jsonlHeader is the first line of a successful JSONL response.
type jsonlHeader struct {
	Groups int     `json:"groups"`
	Cache  string  `json:"cache"`
	Mode   string  `json:"mode"`
	Queued bool    `json:"queued"`
	WaitMs float64 `json:"wait_ms"`
}

// jsonlRow is one result row; K carries decoded general keys.
type jsonlRow struct {
	G uint64    `json:"g"`
	K []any     `json:"k"`
	A []int64   `json:"a"`
	F []float64 `json:"f"`
}

// walkJSONL splits a JSONL result into header, rows and trailer. It
// checks the shape common to every result (a header, rows, a done trailer
// whose row count matches the rows received and the header's group count)
// and hands each row line to fn.
func walkJSONL(body []byte, fn func(line []byte) error) (jsonlHeader, int, error) {
	var hdr jsonlHeader
	body = bytes.TrimSuffix(body, []byte("\n"))
	first, last := bytes.IndexByte(body, '\n'), bytes.LastIndexByte(body, '\n')
	if first < 0 {
		return hdr, 0, fmt.Errorf("malformed result: %.80q", body)
	}
	if err := json.Unmarshal(body[:first], &hdr); err != nil {
		return hdr, 0, fmt.Errorf("malformed header: %v", err)
	}
	var trailer struct {
		Done bool `json:"done"`
		Rows int  `json:"rows"`
	}
	if err := json.Unmarshal(body[last+1:], &trailer); err != nil || !trailer.Done {
		return hdr, 0, fmt.Errorf("missing done trailer: %.80q", body[last+1:])
	}
	rows := 0
	for p := body[first+1 : max(last, first+1)]; len(p) > 0; rows++ {
		line := p
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			line, p = p[:i], p[i+1:]
		} else {
			p = nil
		}
		if err := fn(line); err != nil {
			return hdr, 0, err
		}
	}
	if trailer.Rows != rows {
		return hdr, 0, fmt.Errorf("trailer says %d rows, received %d", trailer.Rows, rows)
	}
	if hdr.Groups != rows {
		return hdr, 0, fmt.Errorf("header says %d groups, received %d rows", hdr.Groups, rows)
	}
	return hdr, rows, nil
}

// check verifies an ingest finish response: every expected string key
// exactly once, decoded, with its exact count and sum.
func (o ingestOracle) check(body []byte) error {
	seen := make(map[string]bool, len(o))
	_, n, err := walkJSONL(body, func(line []byte) error {
		var row jsonlRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("malformed row: %v", err)
		}
		if len(row.K) != 1 {
			return fmt.Errorf("group %d: %d decoded keys, want 1", row.G, len(row.K))
		}
		key, ok := row.K[0].(string)
		if !ok {
			return fmt.Errorf("group %d: decoded key %v is not a string", row.G, row.K[0])
		}
		want, ok := o[key]
		switch {
		case !ok:
			return fmt.Errorf("unexpected key %q", key)
		case seen[key]:
			return fmt.Errorf("key %q repeated", key)
		case len(row.A) != 2 || row.A[0] != want.count || row.A[1] != want.sum0:
			return fmt.Errorf("key %q: aggregates %v, want [%d %d]", key, row.A, want.count, want.sum0)
		}
		seen[key] = true
		return nil
	})
	if err != nil {
		return err
	}
	if n != len(o) {
		return fmt.Errorf("%d groups, want %d", n, len(o))
	}
	return nil
}

// checkWindow verifies a window-query response is well-formed JSONL whose
// trailer row count matches the rows received.
func checkWindow(body []byte) error {
	_, _, err := walkJSONL(body, func(line []byte) error {
		if !json.Valid(line) {
			return fmt.Errorf("malformed row %.80q", line)
		}
		return nil
	})
	return err
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// parseRow decodes a row line. Rows of /v1/aggregate responses have one
// fixed shape, {"g":N,"a":[...],"f":[...]}, parsed here without
// reflection so that checking a 131k-row response stays cheap next to
// serving it; any other shape falls back to encoding/json.
func parseRow(line []byte, row *jsonlRow) error {
	if fastRow(line, row) {
		return nil
	}
	*row = jsonlRow{A: row.A[:0], F: row.F[:0]}
	if err := json.Unmarshal(line, row); err != nil {
		return fmt.Errorf("malformed row %.80q: %v", line, err)
	}
	return nil
}

func fastRow(line []byte, row *jsonlRow) bool {
	p := line
	take := func(lit string) bool {
		if !bytes.HasPrefix(p, []byte(lit)) {
			return false
		}
		p = p[len(lit):]
		return true
	}
	number := func() ([]byte, bool) {
		i := 0
		for i < len(p) && p[i] != ',' && p[i] != ']' && p[i] != '}' {
			i++
		}
		if i == 0 {
			return nil, false
		}
		tok := p[:i]
		p = p[i:]
		return tok, true
	}
	if !take(`{"g":`) {
		return false
	}
	tok, ok := number()
	if !ok {
		return false
	}
	g, ok := parseUint(tok)
	if !ok {
		return false
	}
	row.G, row.K = g, nil
	row.A, row.F = row.A[:0], row.F[:0]
	if !take(`,"a":[`) {
		return false
	}
	for {
		tok, ok := number()
		if !ok {
			return false
		}
		neg := tok[0] == '-'
		if neg {
			tok = tok[1:]
		}
		u, ok := parseUint(tok)
		if !ok || u > math.MaxInt64 {
			return false
		}
		v := int64(u)
		if neg {
			v = -v
		}
		row.A = append(row.A, v)
		if take("]") {
			break
		}
		if !take(",") {
			return false
		}
	}
	if take(`,"f":[`) {
		for {
			tok, ok := number()
			if !ok {
				return false
			}
			v, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false
			}
			row.F = append(row.F, v)
			if take("]") {
				break
			}
			if !take(",") {
				return false
			}
		}
	}
	return take("}") && len(p) == 0
}

// parseUint parses a non-empty decimal digit string without overflow.
func parseUint(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// intOracle maps each group to its expected integer aggregates (AVG
// truncated toward zero), the form of the operator's Result.Aggs. It
// checks the results of direct layer calls in the traced run.
type intOracle map[uint64][]int64

func newIntOracle(keys []uint64, cols [][]int64, refs []serve.AggRef) intOracle {
	type acc struct{ count, sums []int64 }
	m := make(map[uint64]*acc)
	for i, k := range keys {
		a := m[k]
		if a == nil {
			a = &acc{count: []int64{0}, sums: make([]int64, len(refs))}
			m[k] = a
		}
		a.count[0]++
		for j, r := range refs {
			if r.Func != "count" {
				a.sums[j] += cols[r.Col][i]
			}
		}
	}
	o := make(intOracle, len(m))
	for k, a := range m {
		out := make([]int64, len(refs))
		for j, r := range refs {
			switch r.Func {
			case "count":
				out[j] = a.count[0]
			case "avg":
				out[j] = a.sums[j] / a.count[0]
			default:
				out[j] = a.sums[j]
			}
		}
		o[k] = out
	}
	return o
}

// check compares a columnar result (groups and one column per aggregate)
// with the expectation, independent of row order.
func (o intOracle) check(groups []uint64, aggs [][]int64) error {
	if len(groups) != len(o) {
		return fmt.Errorf("%d groups, want %d", len(groups), len(o))
	}
	seen := make(map[uint64]bool, len(groups))
	for i, g := range groups {
		want, ok := o[g]
		if !ok || seen[g] {
			return fmt.Errorf("group %d unexpected or repeated", g)
		}
		seen[g] = true
		if len(aggs) != len(want) {
			return fmt.Errorf("%d aggregate columns, want %d", len(aggs), len(want))
		}
		for j := range want {
			if aggs[j][i] != want[j] {
				return fmt.Errorf("group %d aggregate %d: %d, want %d", g, j, aggs[j][i], want[j])
			}
		}
	}
	return nil
}
