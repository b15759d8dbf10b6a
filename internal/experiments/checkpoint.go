package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"braid/internal/jsonl"
)

// ckptRecord is one completed simulation in the append-only JSONL
// checkpoint: its point key (uarch.PointKey) and its result, so a record is
// only ever replayed for the exact point it was computed for, bit-identical
// to rerunning it. Only successes are persisted — failures must re-execute
// so a fixed environment can pass.
type ckptRecord struct {
	Key string  `json:"key"`
	IPC float64 `json:"ipc"`
	// CI is the sampled estimate's relative 95% confidence half-width on
	// IPC; omitted for exact points.
	CI float64 `json:"ipc_rel_ci95,omitempty"`
}

// errOldCheckpoint refuses a checkpoint written before records carried a
// point key: its records cannot say which program or model they belong to.
var errOldCheckpoint = errors.New("old checkpoint format: delete it or run without -resume")

// ckptDone is the shared pre-closed latch for restored memo cells.
var ckptDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// OpenCheckpoint attaches an append-only JSONL checkpoint at path: every
// simulation that completes from now on is persisted. With resume set, any
// existing records are first loaded into the memo cache (the returned count),
// so an interrupted or crashed sweep restarts from its completed points. A
// torn final line — the signature of a mid-write crash — is ignored; any
// other malformed line is an error.
func (w *Workloads) OpenCheckpoint(path string, resume bool) (int, error) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckptFile != nil {
		return 0, fmt.Errorf("experiments: checkpoint already open")
	}
	restored := 0
	if resume {
		data, err := os.ReadFile(path) // a missing file resumes nothing
		if err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		if restored, err = w.loadCheckpoint(data); err != nil {
			return 0, fmt.Errorf("experiments: resuming %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	w.ckptFile = f
	return restored, nil
}

// CloseCheckpoint syncs, detaches and closes the checkpoint file, if any.
// It returns the first write or sync error the checkpoint met since it was
// opened: a sweep that ran to completion but could not persist its points
// must not look resumable.
func (w *Workloads) CloseCheckpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckptFile == nil {
		return nil
	}
	w.syncCheckpointLocked()
	err := w.ckptErr
	if cerr := w.ckptFile.Close(); err == nil {
		err = cerr
	}
	w.ckptFile, w.ckptErr = nil, nil
	if err != nil {
		return fmt.Errorf("experiments: checkpoint: %w", err)
	}
	return nil
}

// syncCheckpoint makes every record appended so far durable. IPCAll calls it
// once per batch, so a crash loses at most the batch in flight.
func (w *Workloads) syncCheckpoint() {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.syncCheckpointLocked()
}

func (w *Workloads) syncCheckpointLocked() {
	if w.ckptFile != nil && w.ckptErr == nil {
		w.ckptErr = w.ckptFile.Sync()
	}
}

// loadCheckpoint replays JSONL records into the memo cache as finished
// cells, deduplicating repeated keys with last-write-wins: a run that opens
// the file without resuming re-simulates and re-appends keys the file
// already holds, and the newest record is the authoritative one. The
// restored count is unique keys, not lines. A record whose key no
// request asks for — another program, config, geometry or model — is loaded
// but never served.
func (w *Workloads) loadCheckpoint(data []byte) (int, error) {
	restored := 0
	err := jsonl.Each(data, func(rec ckptRecord) error {
		if rec.Key == "" {
			return errOldCheckpoint
		}
		w.mu.Lock()
		if _, ok := w.memo[rec.Key]; !ok {
			restored++
		}
		w.memo[rec.Key] = &memoCell{done: ckptDone, ipc: rec.IPC, ci: rec.CI}
		w.mu.Unlock()
		return nil
	})
	return restored, err
}

// checkpointPoint appends one completed simulation. The first write error
// is latched for CloseCheckpoint and stops further appends: a record
// written after a short write would land mid-line and corrupt the file.
func (w *Workloads) checkpointPoint(key string, ipc, ci float64) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckptFile == nil || w.ckptErr != nil {
		return
	}
	data, err := json.Marshal(&ckptRecord{Key: key, IPC: ipc, CI: ci})
	if err != nil {
		return // a string and two finite floats always marshal; defensive only
	}
	// One Write call per record keeps lines whole even if the process dies
	// mid-sweep; a torn line can only be the file's very last.
	_, w.ckptErr = w.ckptFile.Write(append(data, '\n'))
}
