package serve

// The append-based response encoder must be byte-identical to the
// reflection encoder both response paths used before it. reflectBody keeps
// that encoder here, as the oracle.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"cacheagg"
)

// reflectBody renders rows through encoding/json's Encoder over the row
// struct the response paths used to marshal, plus the done trailer.
func reflectBody(groups []uint64, keys []cacheagg.KeyColumn, aggs [][]int64, floats floatSource) ([]byte, error) {
	var b strings.Builder
	b.Grow(len(groups) * 32)
	row := struct {
		G uint64    `json:"g"`
		K []any     `json:"k,omitempty"`
		A []int64   `json:"a,omitempty"`
		F []float64 `json:"f,omitempty"`
	}{}
	enc := json.NewEncoder(&b)
	for i := range groups {
		row.G = groups[i]
		if keys != nil {
			row.K = row.K[:0]
			for ci := range keys {
				c := &keys[ci]
				switch {
				case c.IsNull(i):
					row.K = append(row.K, nil)
				case c.Uint64s != nil:
					row.K = append(row.K, c.Uint64s[i])
				default:
					row.K = append(row.K, c.Strings[i])
				}
			}
		}
		row.A = row.A[:0]
		for _, col := range aggs {
			row.A = append(row.A, col[i])
		}
		if floats != nil {
			row.F = row.F[:0]
			for a := range aggs {
				row.F = append(row.F, floats.Float(a, i))
			}
		}
		if err := enc.Encode(&row); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&b, "{\"done\":true,\"rows\":%d}\n", len(groups))
	return []byte(b.String()), nil
}

// floatCols is a floatSource over explicit columns.
type floatCols [][]float64

func (f floatCols) Float(a, idx int) float64 { return f[a][idx] }

// assertSameBody encodes with both encoders and requires identical bytes.
func assertSameBody(t *testing.T, groups []uint64, keys []cacheagg.KeyColumn, aggs [][]int64, floats floatSource) {
	t.Helper()
	want, err := reflectBody(groups, keys, aggs, floats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeBody(groups, keys, aggs, floats)
	if err != nil {
		t.Fatal(err)
	}
	if n := bodyLen(groups, keys, aggs, floats); len(got) > n && !hasStrings(keys) {
		t.Fatalf("bodyLen %d is short of the %d-byte numeric body", n, len(got))
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// hasStrings reports a string key column: bodyLen leaves room for string
// escapes to the buffer's growth.
func hasStrings(keys []cacheagg.KeyColumn) bool {
	for _, k := range keys {
		if k.Uint64s == nil {
			return true
		}
	}
	return false
}

// aggregateDataset runs the query a served request would over a dataset
// spec, returning the result and the dataset for key decoding.
func aggregateDataset(t testing.TB, spec string, specs []cacheagg.AggSpec) (*cacheagg.Result, *Dataset) {
	t.Helper()
	d, err := ParseDatasetSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cacheagg.Aggregate(cacheagg.Input{GroupBy: d.Keys, Columns: d.Cols, Aggregates: specs}, cacheagg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

var (
	countSumAvg = []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}, {Func: cacheagg.Avg, Col: 1}}
	countSum    = []cacheagg.AggSpec{{Func: cacheagg.Count}, {Func: cacheagg.Sum, Col: 0}}
	minMax      = []cacheagg.AggSpec{{Func: cacheagg.Min, Col: 1}, {Func: cacheagg.Max, Col: 0}}
)

// TestEncodeBodyMatchesReflectEncoder is the byte-identity differential:
// query results of every dataset kind, a string-keyed stream snapshot,
// and hand-picked strings and floats at the edges of encoding/json's
// escaping and float formatting.
func TestEncodeBodyMatchesReflectEncoder(t *testing.T) {
	datasets := []struct {
		name, spec string
		specs      []cacheagg.AggSpec
		floats     bool
	}{
		{"uint64/avg", "e=zipf:16384:4096:7", countSumAvg, true},
		{"uint64/no-avg", "e=uniform:16384:4096:7", append(countSum, minMax...), false},
		{"uint64/distinct", "e=uniform:4096:1024:7", nil, false},
		{"strings", "u=strings:8192:512:3", countSumAvg, true},
		{"strings/distinct", "u=strings:8192:512:3", nil, false},
		{"composite2", "p=composite2:8192:256:9", countSum, false},
	}
	for _, tc := range datasets {
		t.Run(tc.name, func(t *testing.T) {
			res, d := aggregateDataset(t, tc.spec, tc.specs)
			var keys []cacheagg.KeyColumn
			if d.GeneralKeys() {
				var err error
				if keys, err = d.Interner.DecodeGroups(res.Groups, d.KeyTypes); err != nil {
					t.Fatal(err)
				}
			}
			var floats floatSource
			if tc.floats {
				floats = res
			}
			assertSameBody(t, res.Groups, keys, res.Aggs, floats)
			// marshalBody is the served path: decode, then encode.
			got, err := marshalBody(res, tc.floats, d)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := reflectBody(res.Groups, keys, res.Aggs, floats)
			if !bytes.Equal(got, want) {
				t.Fatal("marshalBody differs from the reflection encoder")
			}
		})
	}

	t.Run("null-keys", func(t *testing.T) {
		// A composite (string, uint64) key with NULLs in both columns,
		// interned and decoded the way a general-key dataset is.
		n := 600
		strs, u64s := make([]string, n), make([]uint64, n)
		snull, unull := make([]bool, n), make([]bool, n)
		for i := range n {
			strs[i] = fmt.Sprintf("k<%d>", i%37)
			u64s[i] = uint64(i%11) << 60
			snull[i] = i%5 == 0
			unull[i] = i%7 == 0
		}
		it := cacheagg.NewInterner()
		ids, err := it.EncodeColumns([]cacheagg.KeyColumn{{Strings: strs, Nulls: snull}, {Uint64s: u64s, Nulls: unull}})
		if err != nil {
			t.Fatal(err)
		}
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(i) - 300
		}
		d := &Dataset{Name: "n", Keys: ids, Cols: [][]int64{col, col},
			KeyTypes: []cacheagg.KeyType{cacheagg.KeyString, cacheagg.KeyUint64}, Interner: it}
		res, err := cacheagg.Aggregate(cacheagg.Input{GroupBy: ids, Columns: d.Cols, Aggregates: countSumAvg}, cacheagg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := it.DecodeGroups(res.Groups, d.KeyTypes)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBody(t, res.Groups, keys, res.Aggs, res)
		got, err := marshalBody(res, true, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(`"k":[null,null]`)) {
			t.Fatal("no all-NULL key row")
		}
	})

	t.Run("stream-snapshot", func(t *testing.T) {
		// A string-keyed stream: the snapshot's ids decode through a
		// dictionary, as respondStream does with the session KEYDICT.
		dict := []string{"/a", "/b?x=1&y=<2>", "\"quoted\"", "tab\there", "\u00fcn\u00efc\u00f6d\u00e9", ""}
		sa, err := cacheagg.BeginStream(cacheagg.StreamOptions{Dir: t.TempDir(), Aggregates: countSumAvg, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sa.Close()
		keys := make([]uint64, 1000)
		col := make([]int64, len(keys))
		for i := range keys {
			keys[i] = uint64(i*i) % uint64(len(dict))
			col[i] = int64(i % 97)
		}
		if err := sa.Push(context.Background(), cacheagg.Block{Keys: keys, Columns: [][]int64{col, col}}); err != nil {
			t.Fatal(err)
		}
		res, err := sa.Snapshot(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		skeys := make([]string, res.Len())
		for i, g := range res.Groups {
			skeys[i] = dict[g]
		}
		assertSameBody(t, res.Groups, []cacheagg.KeyColumn{{Strings: skeys}}, res.Aggs, res)
		assertSameBody(t, res.Groups, []cacheagg.KeyColumn{{Strings: skeys}}, res.Aggs, nil)
	})

	t.Run("hand-picked-strings", func(t *testing.T) {
		var ctl strings.Builder
		for b := 0; b < 0x20; b++ {
			ctl.WriteByte(byte(b))
		}
		strs := []string{
			"", "plain", "<>&", `"`, `\`, `a"b\c`, ctl.String(), "\x7f",
			"\xff", "a\xffb", "\xc3", "\xc3(", "\xe2\x82", "\xed\xa0\x80", "\xf4\x90\x80\x80",
			"\u2028", "x\u2029y", "\u2027\u202a", "\ufffd", "\u65e5\u672c\u8a9e", "\U0001f642", "</script>",
			"mixed \x00<\u2028>\xfe\"\\\n",
		}
		for b := 0; b < 0x20; b++ {
			strs = append(strs, string([]byte{'[', byte(b), ']'}))
		}
		groups := make([]uint64, len(strs))
		count := make([]int64, len(strs))
		for i := range groups {
			groups[i] = uint64(i)
			count[i] = int64(i + 1)
		}
		keys := []cacheagg.KeyColumn{{Strings: strs}}
		assertSameBody(t, groups, keys, [][]int64{count}, nil)
		assertSameBody(t, groups, keys, nil, nil)
	})

	t.Run("hand-picked-floats", func(t *testing.T) {
		vals := []float64{
			0, 1, 0.5, 1.0 / 3, 5e-324, 1e-7, 1.5e-7, 1e-6, 9.99e-7, 123456.789,
			1e20, 1e21, 1.5e21, 1e100, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 60,
			math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-308, math.Pi * 1e15,
			1234567890123456.7, 0.1, 1e-5, 0.000001234, 3.4e38, 9007199254740993,
			// The widest rendering of each floatLen class.
			1.2345678901234567, 1.2345678901234567e-6, 1.2345678901234567e-300, 123456789012345680000,
		}
		var all []float64
		for _, v := range vals {
			all = append(all, v, -v)
		}
		all = append(all, math.Copysign(0, -1))
		groups := make([]uint64, len(all))
		ints := make([]int64, len(all))
		for i, v := range all {
			groups[i] = uint64(i)
			ints[i] = int64(math.Max(math.Min(v, 1<<62), -1<<62))
		}
		assertSameBody(t, groups, nil, [][]int64{ints}, floatCols{all})
		for _, v := range all {
			if b, _ := appendJSONFloat(nil, v); len(b) > floatLen(v) {
				t.Fatalf("floatLen(%v) = %d, short of %s", v, floatLen(v), b)
			}
		}
	})

	t.Run("extremes", func(t *testing.T) {
		groups := []uint64{0, 9, 10, math.MaxUint64, 1 << 63}
		a := []int64{0, -1, math.MinInt64, math.MaxInt64, 10}
		keys := []cacheagg.KeyColumn{{Uint64s: []uint64{math.MaxUint64, 0, 7, 99, 100}, Nulls: []bool{false, true, false, false, true}}}
		assertSameBody(t, groups, keys, [][]int64{a, a}, nil)
		assertSameBody(t, nil, nil, [][]int64{{}}, nil)
		assertSameBody(t, nil, nil, nil, nil)
		// uintLen and intLen are exact on both sides of every power of ten.
		for _, p := range pow10 {
			for _, v := range []uint64{p - 1, p, p + 1, math.MaxUint64} {
				if n := len(strconv.FormatUint(v, 10)); uintLen(v) != n {
					t.Fatalf("uintLen(%d) = %d, want %d", v, uintLen(v), n)
				}
				if i := -int64(v); i <= 0 && intLen(i) != len(strconv.FormatInt(i, 10)) {
					t.Fatalf("intLen(%d) = %d", i, intLen(i))
				}
			}
		}
	})
}

// TestEncodeBodyRejectsNonFinite pins the error path respondStream and
// marshalBody map to ErrInternal: NaN and ±Inf are encoding/json's
// unsupported values, and the rows before the bad one are returned whole.
func TestEncodeBodyRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		groups := []uint64{1, 2, 3}
		aggs := [][]int64{{10, 20, 30}, {1, 2, 3}}
		floats := floatCols{{10, 20, 30}, {1.5, bad, 3.5}}
		got, err := encodeBody(groups, nil, aggs, floats)
		var uerr *json.UnsupportedValueError
		if !errors.As(err, &uerr) {
			t.Fatalf("%v: err = %v, want *json.UnsupportedValueError", bad, err)
		}
		if _, werr := reflectBody(groups, nil, aggs, floats); werr == nil || werr.Error() != err.Error() {
			t.Fatalf("%v: err %q, reflection encoder says %v", bad, err, werr)
		}
		if want := `{"g":1,"a":[10,1],"f":[10,1.5]}` + "\n"; string(got) != want {
			t.Fatalf("%v: partial output %q, want only the first row %q", bad, got, want)
		}
	}
}

// TestEncodeBodyAllocatesOnce pins the sizing: a 131k-group numeric
// result with an AVG column is rendered into one buffer allocated once.
func TestEncodeBodyAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates 2^20 rows")
	}
	res, _ := aggregateDataset(t, "h=uniform:1048576:131072:1", countSumAvg)
	if res.Len() < 130000 {
		t.Fatalf("only %d groups", res.Len())
	}
	var body []byte
	allocs := testing.AllocsPerRun(3, func() {
		body, _ = encodeBody(res.Groups, nil, res.Aggs, res)
	})
	if allocs != 1 {
		t.Fatalf("encodeBody made %v allocations, want 1", allocs)
	}
	if len(body) > cap(body) || cap(body) > len(body)*5/4 {
		t.Fatalf("body %d bytes in a %d-byte buffer", len(body), cap(body))
	}
}

// FuzzAppendJSONString: any byte string encodes exactly as encoding/json's
// Encoder encodes it, and decodes back with each invalid UTF-8 byte
// replaced by U+FFFD.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", "<a href=\"x\">&amp;</a>", "\x00\x1f\x7f", "\xff\xfe",
		"\u2028\u2029", "\xe2\x80", "tab\tnl\ncr\r", "\u65e5\u672c\xc3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
			t.Fatalf("%q: got %s, want %s", s, got, want.Bytes())
		}
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%q: %s does not decode: %v", s, got, err)
		}
		if back != string([]rune(s)) {
			t.Fatalf("%q: round-trips to %q", s, back)
		}
	})
}

// BenchmarkEncodeBody compares the reflection encoder with the append
// encoder on a serve-highk-shaped result (131k uint64 groups, count, sum,
// avg) and on 65k string groups (count, sum).
func BenchmarkEncodeBody(b *testing.B) {
	highk, _ := aggregateDataset(b, "h=uniform:1048576:131072:1", countSumAvg)
	sres, sd := aggregateDataset(b, "u=strings:524288:65536:3", countSum)
	skeys, err := sd.Interner.DecodeGroups(sres.Groups, sd.KeyTypes)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		groups []uint64
		keys   []cacheagg.KeyColumn
		aggs   [][]int64
		floats floatSource
	}{
		{"uint64-131k-count-sum-avg", highk.Groups, nil, highk.Aggs, highk},
		{"strings-65k-count-sum", sres.Groups, skeys, sres.Aggs, nil},
	}
	encoders := []struct {
		name string
		fn   func([]uint64, []cacheagg.KeyColumn, [][]int64, floatSource) ([]byte, error)
	}{
		{"reflect", reflectBody},
		{"append", encodeBody},
	}
	for _, c := range cases {
		for _, e := range encoders {
			b.Run(c.name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.fn(c.groups, c.keys, c.aggs, c.floats); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.groups)), "ns/group")
			})
		}
	}
}
