package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzBuildRequest drives arbitrary bodies through braidd's request decode
// path — strict JSON into a SimRequest, then Build. A body is a trust
// boundary: every input must come back as a *Built or an error, never a
// panic, and a *Built must carry a point key.
func FuzzBuildRequest(f *testing.F) {
	f.Add([]byte(`{"kernel":"dot","core":"ooo","width":4}`))
	f.Add([]byte(`{"workload":"gcc","iters":3,"core":"braid","width":8}`))
	f.Add([]byte(`{"asm":"addi r1, r0, 5\nhalt\n","core":"inorder","braid":true}`))
	f.Add([]byte(`{"kernel":"dot","config":{"Core":3},"sampling":{"period":10,"detail":2,"warmup":2}}`))
	f.Add([]byte(`{"image":"QlJENjQ=","max_cycles":1,"timeout_ms":-5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		b, err := Build(&req, Limits{})
		if (b == nil) == (err == nil) {
			t.Fatalf("Build returned %v and %v: want exactly one", b, err)
		}
		if b != nil && (b.ProgHash == "" || b.ConfHash == "") {
			t.Fatalf("built simulation has no point key: %q", b.Key())
		}
	})
}
