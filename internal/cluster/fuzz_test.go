package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzShardResponseDecode drives the coordinator's worker-stream
// decoder with adversarial bytes. The decoder sits between the
// coordinator and whatever a half-dead worker (or a non-worker answering
// its port) sends back, so the contract is the same one the parsers owe
// the fault-containment layer: never panic, never read unboundedly, and
// classify every record it does accept into a valid kind.
func FuzzShardResponseDecode(f *testing.F) {
	f.Add([]byte(`{"type":"shard","start":0,"end":10,"aligned_start":0,"aligned_end":10}` + "\n" +
		`{"type":"feature","id":1}` + "\n" +
		`{"type":"summary","matched":1}` + "\n"))
	f.Add([]byte(`{"type":"pair","a_id":1,"b_id":2}` + "\n" + `{"type":"error","kind":"panic"}` + "\n"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"type":"shard","start":-5,"end":-9,"aligned_start":-1,"aligned_end":-2}`))
	f.Add([]byte(`{"type":}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(strings.Repeat(`{"type":"x"}`+"\n", 64)))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, '\n'}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewStreamDecoder(bytes.NewReader(data))
		for i := 0; i < 1<<16; i++ {
			line, kind, err := dec.Next()
			if err != nil {
				if errors.Is(err, io.EOF) && line != nil {
					t.Fatal("EOF must not carry a record")
				}
				return // any error terminates the stream; that is the contract
			}
			if len(line) == 0 {
				t.Fatal("decoder returned an empty record without error")
			}
			switch kind {
			case RecPayload, RecSummary, RecError:
			case RecShardHead:
				// A head record must round-trip through the validating
				// decoder or fail cleanly — never panic.
				if _, err := DecodeShardHead(line); err == nil {
					if _, err2 := DecodeShardHead(line); err2 != nil {
						t.Fatal("DecodeShardHead not deterministic")
					}
				}
			default:
				t.Fatalf("invalid record kind %d", kind)
			}
		}
	})
}

// classifyReference is the classifier without its fast path: every line
// decoded by encoding/json, its type field read.
func classifyReference(line []byte) (RecKind, error) {
	var t struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &t); err != nil {
		return RecPayload, err
	}
	switch t.Type {
	case "shard":
		return RecShardHead, nil
	case "summary":
		return RecSummary, nil
	case "error":
		return RecError, nil
	case "":
		return RecPayload, errors.New("record missing type field")
	default:
		return RecPayload, nil
	}
}

// encodedSeeds are records as the worker encoder writes them
// (internal/server/record.go), one of each shape: signed and extreme
// integers, -0, both float forms on either side of the 1e-6 and 1e21
// switches, and properties escaped as encoding/json escapes them.
var encodedSeeds = []string{
	`{"type":"feature","id":1,"offset":0,"bbox":[0,0,1,1],"area":0.5,"properties":{"type":"summary"}}`,
	`{"type":"pair","a_id":1,"b_id":2,"a_off":0,"b_off":9}`,
	`{"type":"feature","id":-9223372036854775808,"offset":0,"bbox":[-0,0,-1.5,2]}`,
	`{"type":"feature","id":7,"offset":1099511627776,"bbox":[1e-7,1e+21,-1e-7,-1e+21],"area":1e-7,"perimeter":1e+21}`,
	`{"type":"feature","id":7,"offset":3,"bbox":[5e-324,1.7976931348623157e+308,1e-320,123456789.125],"perimeter":-0.1}`,
	`{"type":"feature","id":0,"offset":9,"bbox":[0,0,1,1],"area":2,"perimeter":6,"properties":{"":"","bad":"\ufffd\ufffd","name":"a\u003cb\u003e\u0026c","note":"say \"hi\" \\ bye","sep":"x\u2028y\u2029z"}}`,
	`{"type":"feature","id":1,"offset":2,"bbox":[0,0,1,1],"properties":{"\ufffd":"\ufffd\ufffd\ufffd","é":"日本"}}`,
	`{"type":"pair","a_id":-3,"b_id":9223372036854775807,"a_off":0,"b_off":-12}`,
}

// classifySeeds are lines that open like a worker's payload record but
// are something else to encoding/json, beside the records a worker
// really writes.
var classifySeeds = append(append([]string(nil), encodedSeeds...),
	`{"type":"feature","id":1,"type":"summary"}`,
	`{"type":"pair","Type":"error"}`,
	`{"type":"feature","TYPE":"shard","start":0}`,
	`{"type":"feature","tYpE":7}`,
	`{"type":"feature","type":"summary"}`,
	`{"type":"feature","type":""}`,
	`{"type":"feature","type":null}`,
	`{"type":"feature","ſ":1,"typeſ":2}`,
	`{"type":"feature","nested":{"type":"summary"},"list":[{"type":"error"}]}`,
	`{"type":"feature","id":1} trailing`,
	`{"type":"feature","id":1}}`,
	`{"type":"feature","id":`,
	`{"type":"feature",`,
	`{"type":"pair","a_id":[1,2}`,
	`{"type":"feature","id":"\x01"}`,
	`{"type":"feature","id":"\xff\xfe"}`,
	"{\"type\":\"feature\",\"id\":1,\"offset\":2,\"bbox\":[0,0,1,1],\"properties\":{\"\xc3\":\"\xed\xa0\x80\",\"é\":\"日本\"}}",
	`{"type":"feature","type":"feature"}`,
	"{\"type\":\"feature\",\"id\":1}\r\n ",
	`["type","feature"]`,
	`"type"`,
	`null`,
	` {"type":"feature","id":1}`,
	`{"type":"summary","matched":1}`,
	`{"type":"error","kind":"internal"}`,
	`{"type":"shard","start":0,"end":10}`,
	`{"type":""}`,
	`{}`,
)

// FuzzClassify: on any line the classifier answers what a full decode
// answers — the same kind, and an error exactly when the decode fails.
// The fast path may only ever say "payload" for a line the decode also
// takes as payload.
func FuzzClassify(f *testing.F) {
	for _, s := range classifySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		kind, err := Classify(line)
		wantKind, wantErr := classifyReference(line)
		if kind != wantKind || (err != nil) != (wantErr != nil) {
			t.Fatalf("Classify(%q) = %d, %v; the decode says %d, %v", line, kind, err, wantKind, wantErr)
		}
	})
}

// TestClassifyFastPath: what a worker writes takes the fast path; a line
// whose later keys might name the type field again, or that the encoder
// never writes, does not — and classifies exactly as the decode does.
func TestClassifyFastPath(t *testing.T) {
	type row struct {
		line string
		fast bool
	}
	rows := []row{
		{`{"type":"feature","id":1,"offset":2,"bbox":[-1.5,2,1e-7,4],"properties":{"a\"b":"< >"}}`, true},
		{`{"type":"feature","id":1,"offset":2,"bbox":[0,0,0,0],"properties":{"k":"\u00e9\/\b\f\n\r\t"}}`, true},
		{`{"type":"feature","id":1,"type":"summary"}`, false},
		{`{"type":"pair","Type":"error"}`, false},
		{`{"type":"feature","type":"summary"}`, false},
		{`{"type":"feature","ſ":1}`, false},
		{`{"type":"feature","id":1} trailing`, false},
		{`{"type":"summary","matched":1}`, false},
		// Payload to the decode, but not a shape the encoder writes.
		{`{"type":"feature","id":1,"offset":2,"bbox":[0,0,1,1],"extra":true}`, false},
		{`{"type":"pair","a_id":1,"b_id":2,"a_off":0,"b_off":9,"weight":1}`, false},
		{`{"type":"feature", "id":1,"offset":2,"bbox":[0,0,1,1]}`, false},
		{`{"type":"pair","a_id":1,"b_id":2,"a_off":0,"b_off":9} `, false},
		{`{"type":"feature","id":1,"offset":2,"bbox":[0,0,1,1],"perimeter":2,"area":1}`, false},
		// Not JSON at all: a leading zero, a bare point, a bad escape, a
		// raw control byte.
		{`{"type":"feature","id":01,"offset":2,"bbox":[0,0,1,1]}`, false},
		{`{"type":"feature","id":1,"offset":2,"bbox":[1.,0,1,1]}`, false},
		{`{"type":"pair","a_id":1,"b_id":2,"a_off":0,"b_off":1e}`, false},
		{`{"type":"feature","id":1,"offset":2,"bbox":[0,0,1,1],"properties":{"k":"\x"}}`, false},
		{`{"type":"feature","id":1,"offset":2,"bbox":[0,0,1,1],"properties":{"k":"\u12"}}`, false},
		{"{\"type\":\"feature\",\"id\":1,\"offset\":2,\"bbox\":[0,0,1,1],\"properties\":{\"k\":\"\x01\"}}", false},
	}
	for _, s := range encodedSeeds {
		rows = append(rows, row{s, true})
	}
	lines := append([]string(nil), classifySeeds...)
	for _, tc := range rows {
		if got := payloadRecord([]byte(tc.line)); got != tc.fast {
			t.Errorf("payloadRecord(%s) = %v, want %v", tc.line, got, tc.fast)
		}
		lines = append(lines, tc.line)
	}
	for _, s := range lines {
		kind, err := Classify([]byte(s))
		wantKind, wantErr := classifyReference([]byte(s))
		if kind != wantKind || (err != nil) != (wantErr != nil) {
			t.Errorf("Classify(%s) = %d, %v; the decode says %d, %v", s, kind, err, wantKind, wantErr)
		}
	}
}
