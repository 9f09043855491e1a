package serve

// The JSONL row encoder shared by every result response (/v1/aggregate and
// ingest query/finish). Rows are appended straight into one buffer sized
// up front from the result, with strconv.Append* for numbers and no
// reflection. The bytes are exactly what encoding/json's Encoder writes
// for the row struct
//
//	{"g":uint64, "k":[]any,omitempty, "a":[]int64,omitempty, "f":[]float64,omitempty}
//
// including its HTML-safe string escaping and its float format, so wire
// parsers see no change.

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"cacheagg"
)

// floatSource is the float64 view of a result's aggregate columns (exact
// Avg, widened integers otherwise). *cacheagg.Result and
// *cacheagg.StreamResult both provide it.
type floatSource interface {
	Float(a, idx int) float64
}

// encodeBody renders one JSONL line per group followed by the done
// trailer. keys, when non-empty, are the decoded general-key columns
// ("k"); aggs are the integer aggregate columns ("a"); floats, when
// non-nil, adds their float view ("f"). The buffer is allocated once:
// bodyLen is exact for numeric cells and for strings that need no
// escaping. A non-finite float is an error, returned with the rows before
// the failing one and no partial row.
func encodeBody(groups []uint64, keys []cacheagg.KeyColumn, aggs [][]int64, floats floatSource) ([]byte, error) {
	dst := make([]byte, 0, bodyLen(groups, keys, aggs, floats))
	for i, g := range groups {
		row := len(dst)
		dst = append(dst, `{"g":`...)
		dst = strconv.AppendUint(dst, g, 10)
		if len(keys) > 0 {
			dst = append(dst, `,"k":[`...)
			for c := range keys {
				if c > 0 {
					dst = append(dst, ',')
				}
				kc := &keys[c]
				switch {
				case kc.IsNull(i):
					dst = append(dst, "null"...)
				case kc.Uint64s != nil:
					dst = strconv.AppendUint(dst, kc.Uint64s[i], 10)
				default:
					dst = appendJSONString(dst, kc.Strings[i])
				}
			}
			dst = append(dst, ']')
		}
		if len(aggs) > 0 {
			dst = append(dst, `,"a":[`...)
			for a, col := range aggs {
				if a > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, col[i], 10)
			}
			dst = append(dst, ']')
			if floats != nil {
				dst = append(dst, `,"f":[`...)
				for a := range aggs {
					if a > 0 {
						dst = append(dst, ',')
					}
					var err error
					if dst, err = appendJSONFloat(dst, floats.Float(a, i)); err != nil {
						return dst[:row], err
					}
				}
				dst = append(dst, ']')
			}
		}
		dst = append(dst, "}\n"...)
	}
	dst = append(dst, `{"done":true,"rows":`...)
	dst = strconv.AppendInt(dst, int64(len(groups)), 10)
	return append(dst, "}\n"...), nil
}

// bodyLen sizes encodeBody's output, cell by cell in the same layout.
func bodyLen(groups []uint64, keys []cacheagg.KeyColumn, aggs [][]int64, floats floatSource) int {
	n := len(`{"done":true,"rows":}`+"\n") + uintLen(uint64(len(groups)))
	perRow := len(`{"g":}` + "\n")
	if len(keys) > 0 {
		perRow += len(`,"k":[]`) + len(keys) - 1
	}
	if len(aggs) > 0 {
		perRow += len(`,"a":[]`) + len(aggs) - 1
		if floats != nil {
			perRow += len(`,"f":[]`) + len(aggs) - 1
		}
	}
	n += perRow * len(groups)
	for _, g := range groups {
		n += uintLen(g)
	}
	for c := range keys {
		kc := &keys[c]
		for i := range groups {
			switch {
			case kc.IsNull(i):
				n += len("null")
			case kc.Uint64s != nil:
				n += uintLen(kc.Uint64s[i])
			default:
				n += len(kc.Strings[i]) + len(`""`)
			}
		}
	}
	for _, col := range aggs {
		for _, v := range col {
			n += intLen(v)
		}
	}
	if floats != nil {
		for a := range aggs {
			for i := range groups {
				n += floatLen(floats.Float(a, i))
			}
		}
	}
	return n
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	// bits·log10(2) is the digit count or one short of it.
	n := bits.Len64(v) * 1233 >> 12
	if v >= pow10[n] {
		n++
	}
	return max(n, 1)
}

// intLen is the length of v in decimal, sign included.
func intLen(v int64) int {
	if v < 0 {
		return 1 + uintLen(uint64(-v))
	}
	return uintLen(uint64(v))
}

// floatLen bounds len(appendJSONFloat(nil, f)): exact on the integral
// fast path, else the widest shortest-form rendering (at most 17
// significant digits) of f's magnitude class.
func floatLen(f float64) int {
	a := math.Abs(f)
	switch {
	case a < 1<<53 && a == math.Trunc(a):
		if math.Signbit(f) {
			return 1 + uintLen(uint64(a))
		}
		return uintLen(uint64(a))
	case a >= 1 && a < 1<<53:
		return len("-.") + 17
	default:
		// Also covers -1.2345678901234567e-308 and the 21 digits of an
		// integral value in [2^53, 1e21).
		return len("-0.00000") + 17
	}
}

// appendJSONFloat appends f formatted as encoding/json formats a float64:
// the shortest round-trip decimal in 'f' form, or 'e' form below 1e-6 and
// from 1e21 up, with a single-digit negative exponent written without its
// leading zero. Integral values below 2^53 in magnitude — every widened
// COUNT/SUM cell — take a strconv.AppendInt fast path, which prints the
// same digits.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	a := math.Abs(f)
	if a < 1<<53 && a == math.Trunc(a) {
		if f == 0 && math.Signbit(f) {
			return append(dst, "-0"...), nil
		}
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if a < 1e-6 || a >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// htmlSafe marks the ASCII bytes encoding/json copies unescaped when HTML
// escaping is on (the Encoder default): everything printable except
// '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json's
// Encoder writes it: short escapes for \" \\ \b \f \n \r \t, \u00XX for
// the other control bytes and for < > &, \ufffd for each byte of invalid
// UTF-8, and U+2028 / U+2029 escaped as \u2028 / \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
