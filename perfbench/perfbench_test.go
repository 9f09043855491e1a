package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var listed, defined []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sort.Strings(listed)
	sort.Strings(defined)
	if strings.Join(listed, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark defines %v", listed, defined)
	}
}

// units maps each metric a report carries to its unit.
func units(rep *report) map[string]string {
	out := make(map[string]string, len(rep.names))
	for _, n := range rep.names {
		out[n] = rep.metrics[n].Unit
	}
	return out
}

// checkNames fails unless got carries exactly the listed metrics, with the
// listed units.
func checkNames(t *testing.T, got map[string]string, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		unit, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the run", m.Name)
		case unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, unit, m.Unit)
		}
	}
}

// shrunk returns the workload at a tiny scale, for the tests.
func (w workload) shrunk() workload {
	w.rows = 1 << 12
	if w.keys > 1<<9 {
		w.keys = 1 << 9
	}
	w.pushRows = 128
	if w.ingest {
		w.rows = 2 * sealEvery * w.pushRows
	}
	return w
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// scale: each must complete with every check passing and report exactly
// the metrics BENCHMARK.json lists for its mode.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkJSON(t)
	t.Setenv("TMPDIR", t.TempDir()) // spill files of the external layer
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w.shrunk(), trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				p := params{w: w, seed: 7, dur: 400 * time.Millisecond, trace: trace, dir: dir}
				if trace {
					p.spans = dir + "/spans.jsonl"
				}
				rep, err := execute(p)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || !rep.valid || rep.attempted == 0 {
					t.Fatalf("failed %d of %d (valid %v): %v\n%s", rep.failed, rep.attempted, rep.valid,
						rep.firstErr, strings.Join(rep.notes, "\n"))
				}
				if trace {
					checkNames(t, units(rep), b.PerLayer)
					spans, err := os.ReadFile(p.spans)
					if err != nil || len(spans) == 0 {
						t.Fatalf("no spans written: %v", err)
					}
				} else {
					checkNames(t, units(rep), b.EndToEnd)
					for _, n := range rep.names {
						if rep.metrics[n].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, rep.metrics[n].Value)
						}
					}
				}
				var line struct {
					Correct bool              `json:"correct"`
					Metrics map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(resultLine(rep)), &line); err != nil || !line.Correct {
					t.Fatalf("result line %s: correct=%v, %v", resultLine(rep), line.Correct, err)
				}
			})
		}
	}
}

// renderQuery renders a correct /v1/aggregate body for the oracle.
func renderQuery(o *queryOracle) []string {
	lines := []string{fmt.Sprintf(`{"cache":"miss","groups":%d,"mode":"full"}`, len(o.want))}
	keys := make([]uint64, 0, len(o.want))
	for k := range o.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		g := o.want[o.index[k]]
		avg := float64(g.sum1) / float64(g.count)
		lines = append(lines, fmt.Sprintf(`{"g":%d,"a":[%d,%d,%d],"f":[%d,%d,%v]}`,
			k, g.count, g.sum0, g.sum1/g.count, g.count, g.sum0, avg))
	}
	return append(lines, fmt.Sprintf(`{"done":true,"rows":%d}`, len(o.want)))
}

func body(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

func TestOracleRejectsWrongResponses(t *testing.T) {
	keys := []uint64{5, 9, 5, 12, 9, 5}
	cols := [][]int64{{1, 2, 3, 4, 5, 6}, {10, 20, 31, 40, 50, 60}}
	o := newQueryOracle(keys, cols)
	qc := newQueryChecker(o)
	good := renderQuery(o)
	if _, err := qc.check(body(good)); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}

	// A row with whitespace takes the encoding/json path and still passes.
	spaced := append([]string(nil), good...)
	spaced[1] = strings.ReplaceAll(spaced[1], ",", ", ")
	if _, err := qc.check(body(spaced)); err != nil {
		t.Fatalf("respaced response rejected: %v", err)
	}

	corrupt := append([]string(nil), good...)
	corrupt[1] = strings.Replace(corrupt[1], `"a":[3,`, `"a":[4,`, 1)
	if corrupt[1] == good[1] {
		t.Fatal("test did not corrupt the row")
	}
	if _, err := qc.check(body(corrupt)); err == nil {
		t.Error("corrupted aggregate accepted")
	}

	// A dropped row with header and trailer counts adjusted to match: only
	// the oracle's group count can catch it.
	dropped := []string{
		strings.Replace(good[0], `"groups":3`, `"groups":2`, 1),
		good[1], good[2],
		`{"done":true,"rows":2}`,
	}
	if _, err := qc.check(body(dropped)); err == nil || !strings.Contains(err.Error(), "2 groups, want 3") {
		t.Errorf("dropped row: err = %v", err)
	}
	if _, err := qc.check(body(good[:len(good)-1])); err == nil {
		t.Error("response without trailer accepted")
	}

	if err := checkStatus(500, []byte("upstream exploded")); err == nil || !strings.Contains(err.Error(), "untyped") {
		t.Errorf("untyped error: err = %v", err)
	}
	if err := checkStatus(503, []byte(`{"error":{"code":"made_up","detail":"x"}}`)); err == nil || !strings.Contains(err.Error(), "untyped") {
		t.Errorf("unknown error code: err = %v", err)
	}
	if err := checkStatus(503, []byte(`{"error":{"code":"shed","detail":"x"}}`)); err == nil || !strings.Contains(err.Error(), "typed error shed") {
		t.Errorf("typed refusal: err = %v", err)
	}

	io := newIngestOracle([]string{"a", "b", "a"}, []int64{1, 2, 3})
	finish := []string{`{"epochs":1,"groups":2,"session":"s"}`, `{"g":0,"k":["a"],"a":[2,4]}`, `{"g":1,"k":["b"],"a":[1,2]}`, `{"done":true,"rows":2}`}
	if err := io.check(body(finish)); err != nil {
		t.Fatalf("correct finish rejected: %v", err)
	}
	finish[2] = `{"g":1,"k":["b"],"a":[1,3]}`
	if err := io.check(body(finish)); err == nil {
		t.Error("corrupted finish aggregate accepted")
	}
	if err := checkWindow(body([]string{`{"groups":2}`, `{"g":0}`, `{"done":true,"rows":2}`})); err == nil {
		t.Error("window response with a missing row accepted")
	}
}

func TestIntOracleRejectsWrongResults(t *testing.T) {
	o := newIntOracle([]uint64{1, 2, 1}, [][]int64{{4, 5, 7}, {0, 0, 0}}, queryAggs)
	groups, aggs := []uint64{2, 1}, [][]int64{{1, 2}, {5, 11}, {0, 0}}
	if err := o.check(groups, aggs); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	aggs[1][1] = 12
	if err := o.check(groups, aggs); err == nil {
		t.Error("corrupted sum accepted")
	}
	if err := o.check(groups[:1], [][]int64{{1}, {5}, {0}}); err == nil {
		t.Error("dropped group accepted")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := &spanLog{spans: []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},
	}}
	self := l.selfTimes()
	// Children cover [10,50) and [90,100) of the root: 50 ns.
	if self["root"] != 50 || self["a"] != 20 || self["c"] != 30 {
		t.Fatalf("self times %v", self)
	}
}
