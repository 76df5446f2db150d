package cluster

import (
	"bufio"
	"bytes"
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
// Feature and pair records — nearly every line of a stream — open with
// the exact bytes a worker's record encoder writes, so they take a fast
// path that validates the line and checks its top-level keys without
// decoding it (payloadRecord). Every other line, and every record the
// fast path cannot vouch for, is decoded as a whole; both paths give the
// same kind and the same error-ness on any input (FuzzClassify).
func Classify(line []byte) (RecKind, error) {
	if payloadRecord(line) {
		return RecPayload, nil
	}
	return classifyDecode(line)
}

// Record openings the worker encoder writes for its payload records.
var (
	featurePrefix = []byte(`{"type":"feature",`)
	pairPrefix    = []byte(`{"type":"pair",`)
)

// payloadRecord reports whether line is certainly a valid payload record:
// it opens with a feature or pair prefix, is valid JSON, and no later
// top-level key could name the type field again. encoding/json matches
// keys case-insensitively (with Unicode folding and escapes) and lets the
// last duplicate win, so a key that might decode to a folded "type" —
// four ASCII letters equal to it under case folding, or any key holding
// an escape or a non-ASCII byte — sends the line to the full decode.
//
//atgis:hotpath
func payloadRecord(line []byte) bool {
	var i int
	switch {
	case bytes.HasPrefix(line, featurePrefix):
		i = len(featurePrefix)
	case bytes.HasPrefix(line, pairPrefix):
		i = len(pairPrefix)
	default:
		return false
	}
	if !json.Valid(line) {
		return false
	}
	// The line is a valid object, so a plain scan finds its keys: at depth
	// 1, a string that follows '{' or ',' is a key.
	depth, key := 1, true
	for ; i < len(line); i++ {
		switch c := line[i]; c {
		case '"':
			j := i + 1
			odd := false // the key needs a second look
			for ; line[j] != '"'; j++ {
				if line[j] == '\\' {
					j++
					odd = true
				} else if line[j] >= 0x80 {
					odd = true
				}
			}
			if depth == 1 && key && (odd || j-i-1 == 4 && foldsToType(line[i+1:j])) {
				return false
			}
			i, key = j, false
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			key = depth == 1
		}
	}
	return true
}

// foldsToType reports whether four ASCII bytes spell "type" in any case.
// (bytes.EqualFold would say the same; this keeps Unicode folding, which
// an ASCII key never needs, out of the merge loop.)
func foldsToType(k []byte) bool {
	return k[0]|0x20 == 't' && k[1]|0x20 == 'y' && k[2]|0x20 == 'p' && k[3]|0x20 == 'e'
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
