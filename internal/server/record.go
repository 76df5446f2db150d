package server

import (
	"encoding/json"
	"math"
	"strconv"
)

// record is a payload record of a stream — a feature or a joined pair —
// that appends its own NDJSON form to b. The bytes are exactly those
// encoding/json writes for the same value (TestRecordEncodingMatchesEncodingJSON),
// so clients, and a coordinator's classifier, see no difference; what
// changes is the cost: no reflection, and no allocation once the
// writer's buffer has grown to a record's size. A value encoding/json
// refuses (NaN, ±Inf) fails with the error it would report.
type record interface {
	appendJSON(b []byte) ([]byte, error)
}

// appendJSON appends the feature record's JSON object. Type is a plain
// ASCII word ("feature"), written without escaping.
//
//atgis:hotpath
func (r *featureRecord) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"type":"`...)
	b = append(b, r.Type...)
	b = append(b, `","id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, r.Offset, 10)
	b = append(b, `,"bbox":[`...)
	var err error
	for i, v := range r.BBox {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendFloat(b, v); err != nil {
			return b, err
		}
	}
	b = append(b, ']')
	// omitempty: a float is empty when it equals 0 (so -0 is too, NaN is not).
	if r.Area != 0 {
		b = append(b, `,"area":`...)
		if b, err = appendFloat(b, r.Area); err != nil {
			return b, err
		}
	}
	if r.Perimeter != 0 {
		b = append(b, `,"perimeter":`...)
		if b, err = appendFloat(b, r.Perimeter); err != nil {
			return b, err
		}
	}
	if len(r.Properties) > 0 {
		b = appendProperties(append(b, `,"properties":`...), r.Properties)
	}
	return append(b, '}'), nil
}

// appendJSON appends the pair record's JSON object. Type is a plain ASCII
// word ("pair"), written without escaping.
//
//atgis:hotpath
func (r *pairRecord) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"type":"`...)
	b = append(b, r.Type...)
	b = append(b, `","a_id":`...)
	b = strconv.AppendInt(b, r.AID, 10)
	b = append(b, `,"b_id":`...)
	b = strconv.AppendInt(b, r.BID, 10)
	b = append(b, `,"a_off":`...)
	b = strconv.AppendInt(b, r.AOff, 10)
	b = append(b, `,"b_off":`...)
	b = strconv.AppendInt(b, r.BOff, 10)
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 up, with a one-digit negative
// exponent unpadded (1e-07 → 1e-7).
//
//atgis:hotpath
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// unsupportedFloat is the error encoding/json reports for a NaN or an
// infinity ("json: unsupported value: NaN").
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// appendProperties appends a feature's extracted properties. They are
// rare and free-form (escaping, sorted keys), so encoding/json keeps
// writing them.
func appendProperties(b []byte, props map[string]string) []byte {
	p, _ := json.Marshal(props) // a map[string]string always encodes
	return append(b, p...)
}
