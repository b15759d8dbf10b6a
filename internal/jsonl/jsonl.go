// Package jsonl reads the append-only JSON-lines point checkpoint that
// braidbench and braidtune share (internal/experiments). Its writer appends
// one record per Write call, so a crash can tear at most the final line.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// LineError reports a malformed record before the final line: real
// corruption, not the signature of an interrupted append.
type LineError struct {
	Line int // 1-based line number in the file
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

// Each decodes every non-blank line of data into a fresh T and passes it to
// fn in file order. A final line that does not decode is a torn append and
// is dropped; a line that does not decode anywhere else is a *LineError. An
// error from fn stops the read and is returned unchanged.
func Each[T any](data []byte, fn func(T) error) error {
	lines := bytes.Split(data, []byte{'\n'})
	last := len(lines) - 1
	for last >= 0 && len(bytes.TrimSpace(lines[last])) == 0 {
		last--
	}
	for i, raw := range lines[:last+1] {
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			if i == last {
				return nil
			}
			return &LineError{Line: i + 1, Err: err}
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}
