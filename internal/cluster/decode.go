package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// RecKind classifies one NDJSON record of a worker response stream.
type RecKind uint8

const (
	// RecPayload is a pass-through record (feature, pair — any type the
	// coordinator forwards opaquely, so workers can grow new record
	// kinds without a coordinator upgrade).
	RecPayload RecKind = iota
	// RecShardHead is the byte-shard handshake (type "shard").
	RecShardHead
	// RecSummary is the terminal summary record.
	RecSummary
	// RecError is a worker's in-band pass-failure record.
	RecError
)

// maxRecordLine bounds one NDJSON record on the wire. Feature records
// carry at most a few KiB of extracted properties; anything beyond this
// is a corrupt or hostile stream, failed as a protocol error rather
// than buffered without bound.
const maxRecordLine = 8 << 20

// StreamDecoder reads one worker's NDJSON response, classifying each
// record so the merge loop knows what to forward, what to fold and what
// marks the end. It tolerates blank lines and classifies unknown record
// types as payload; it is the surface FuzzShardResponseDecode drives
// with adversarial bytes — it must never panic and never read past one
// record's bound.
type StreamDecoder struct {
	sc *bufio.Scanner
}

// NewStreamDecoder wraps a worker response body: plain NDJSON, since a
// shard RPC asks its worker for identity encoding (Coordinator.post).
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxRecordLine)
	return &StreamDecoder{sc: sc}
}

// Next returns the next record and its classification. io.EOF signals a
// clean end of stream (the caller decides whether a summary was seen);
// other errors are transport failures, over-long records, or records
// that do not parse as typed JSON objects. The returned line aliases
// the scanner's buffer — valid until the next call.
func (d *StreamDecoder) Next() ([]byte, RecKind, error) {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		kind, err := Classify(line)
		if err != nil {
			return nil, kind, err
		}
		return line, kind, nil
	}
	if err := d.sc.Err(); err != nil {
		return nil, RecPayload, err
	}
	return nil, RecPayload, io.EOF
}

// trimSpace is a minimal ASCII-whitespace trim (records are JSON, whose
// insignificant whitespace is ASCII).
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 {
		c := b[len(b)-1]
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
		b = b[:len(b)-1]
	}
	return b
}

// Classify determines one record's kind from its type field. Unknown
// non-empty types are payload (forward-compatible); a record that is
// not a JSON object with a string type is a protocol error.
//
// Feature and pair records — nearly every line of a stream — are
// recognised in one left-to-right pass against the exact shape the
// worker's record encoder writes (payloadRecord). Every other line, a
// record with a field the recogniser does not know among them, is
// decoded as a whole; both paths give the same kind and the same
// error-ness on any input (FuzzClassify).
func Classify(line []byte) (RecKind, error) {
	if payloadRecord(line) {
		return RecPayload, nil
	}
	return classifyDecode(line)
}

// Record openings the worker encoder writes for its payload records, up
// to the first value.
const (
	featureHead = `{"type":"feature","id":`
	pairHead    = `{"type":"pair","a_id":`
)

// payloadRecord reports whether line is exactly a record the worker
// encoder writes (internal/server/record.go), with no whitespace:
//
//	{"type":"feature","id":N,"offset":N,"bbox":[N,N,N,N],"area":N,"perimeter":N,"properties":{"k":"v",…}}
//	{"type":"pair","a_id":N,"b_id":N,"a_off":N,"b_off":N}
//
// where area, perimeter and properties may each be left out, N is any
// JSON number and k, v are any JSON strings. Such a line is a valid JSON
// object whose only key encoding/json could match to "type" (it folds
// case and lets the last duplicate win) is the first, so the full decode
// would call it payload too.
//
// The helpers thread a cursor: each takes the index its part should
// start at and returns the index past it, or -1 if the part is not there.
// -1 passes through every later step, so the line is a record exactly
// when the chain ends at len(line).
//
//atgis:hotpath
func payloadRecord(line []byte) bool {
	i := -1
	if j := literal(line, 0, featureHead); j >= 0 {
		i = field(line, field(line, number(line, j), `,"offset":`), `,"bbox":[`)
		for k := 0; k < 3; k++ {
			i = field(line, i, ",")
		}
		i = literal(line, i, "]")
		for _, key := range [...]string{`,"area":`, `,"perimeter":`} {
			if j := literal(line, i, key); j >= 0 {
				i = number(line, j)
			}
		}
		if j := literal(line, i, `,"properties":{`); j >= 0 {
			i = properties(line, j)
		}
	} else if j := literal(line, 0, pairHead); j >= 0 {
		i = field(line, field(line, field(line, number(line, j), `,"b_id":`), `,"a_off":`), `,"b_off":`)
	}
	return literal(line, i, "}") == len(line)
}

// literal matches the bytes of s at b[i:].
//
//atgis:hotpath
func literal(b []byte, i int, s string) int {
	if i < 0 || len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return -1
	}
	return i + len(s)
}

// field matches key, then a number.
//
//atgis:hotpath
func field(b []byte, i int, key string) int {
	return number(b, literal(b, i, key))
}

// number matches a JSON number at b[i:]: an optional minus, 0 or a digit
// run without a leading zero, then an optional fraction and exponent.
//
//atgis:hotpath
func number(b []byte, i int) int {
	if i >= 0 && i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < 0 || i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digits skips a run of decimal digits from b[i].
//
//atgis:hotpath
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// properties matches the members of a string-to-string JSON object and
// its close, from just past its '{'.
//
//atgis:hotpath
func properties(b []byte, i int) int {
	if j := literal(b, i, "}"); j >= 0 {
		return j
	}
	for {
		i = str(b, literal(b, str(b, i), ":"))
		if j := literal(b, i, ","); j >= 0 {
			i = j
			continue
		}
		return literal(b, i, "}")
	}
}

// str matches a JSON string at b[i:]: no raw control byte, only the
// escapes \" \\ \/ \b \f \n \r \t and \uXXXX. Bytes from 0x80 pass
// unchecked, as they do in encoding/json.
//
//atgis:hotpath
func str(b []byte, i int) int {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !hex(b[i+1]) || !hex(b[i+2]) || !hex(b[i+3]) || !hex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// hex reports whether c is a hexadecimal digit.
//
//atgis:hotpath
func hex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// classifyDecode is Classify's general path: decode the type field.
func classifyDecode(line []byte) (RecKind, error) {
	var t struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &t); err != nil {
		return RecPayload, fmt.Errorf("cluster: malformed record: %w", err)
	}
	switch t.Type {
	case "shard":
		return RecShardHead, nil
	case "summary":
		return RecSummary, nil
	case "error":
		return RecError, nil
	case "":
		return RecPayload, fmt.Errorf("cluster: record missing type field")
	default:
		return RecPayload, nil
	}
}
