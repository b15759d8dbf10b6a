package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

type rec struct {
	K string `json:"k"`
}

func TestEach(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
		want []string
		line int // LineError line, 0 for none
	}{
		{"empty", "", nil, 0},
		{"blank lines skipped", "\n{\"k\":\"a\"}\n\n  \n{\"k\":\"b\"}\n\n", []string{"a", "b"}, 0},
		{"torn tail dropped", "{\"k\":\"a\"}\n{\"k\":\"b", []string{"a"}, 0},
		{"torn tail before trailing blanks", "{\"k\":\"a\"}\n{\"k\"\n \n", []string{"a"}, 0},
		{"corrupt middle refused", "{\"k\":\"a\"}\n{\"k\"\n{\"k\":\"c\"}\n", []string{"a"}, 2},
		{"repeated tail text is not the tail", "{\"k\"\n{\"k\"\n", nil, 1},
	} {
		var got []string
		err := Each([]byte(tc.data), func(r rec) error { got = append(got, r.K); return nil })
		var le *LineError
		switch {
		case tc.line == 0 && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.line != 0 && (!errors.As(err, &le) || le.Line != tc.line):
			t.Errorf("%s: got error %v, want a LineError at line %d", tc.name, err, tc.line)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got records %q, want %q", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got records %q, want %q", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestEachStopsOnCallbackError(t *testing.T) {
	stop := errors.New("stop")
	n := 0
	err := Each([]byte("{}\n{}\n{}\n"), func(rec) error { n++; return stop })
	if err != stop || n != 1 {
		t.Fatalf("got %v after %d records, want the callback's error after 1", err, n)
	}
}

// FuzzJSONL: any bytes yield the well-formed records in order, then either
// nothing more, a dropped torn final line, or a *LineError naming the first
// malformed line — never a panic and never a silently skipped middle line.
func FuzzJSONL(f *testing.F) {
	f.Add([]byte("{\"k\":\"a\"}\n{\"k\":\"b\"}\n"))
	f.Add([]byte("{\"k\":\"a\"}\n{\"k\":"))
	f.Add([]byte("{\"k\"\n{\"k\":\"b\"}\n"))
	f.Add([]byte("\n\n  \r\n"))
	f.Add([]byte("null\n5\n\"x\"\n[1]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []json.RawMessage
		err := Each(data, func(r json.RawMessage) error { got = append(got, r); return nil })

		var lines [][]byte
		var numbers []int
		for i, l := range bytes.Split(data, []byte{'\n'}) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				lines, numbers = append(lines, l), append(numbers, i+1)
			}
		}
		bad := len(lines)
		for i, l := range lines {
			if !json.Valid(l) {
				bad = i
				break
			}
		}
		if len(got) != bad {
			t.Fatalf("read %d records; the first %d lines are well formed", len(got), bad)
		}
		for i := range got {
			if !bytes.Equal(got[i], lines[i]) {
				t.Fatalf("record %d is %q, line holds %q", i, got[i], lines[i])
			}
		}
		var le *LineError
		switch {
		case bad >= len(lines)-1:
			if err != nil {
				t.Fatalf("only the final line may be malformed, yet got %v", err)
			}
		case !errors.As(err, &le) || le.Line != numbers[bad]:
			t.Fatalf("malformed line %d before the tail: got %v, want a LineError", numbers[bad], err)
		}
	})
}
