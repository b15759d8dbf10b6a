package explore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"

	"braid/internal/jsonl"
	"braid/internal/uarch"
)

// Meta pins the search parameters a checkpoint was taken under. Resume
// refuses a mismatch: silently continuing a search with different
// parameters would blend two different searches into one front.
type Meta struct {
	Lattice   int      `json:"lattice"` // latticeVersion the genomes index into
	Model     int      `json:"model"`   // uarch.ModelVersion the evaluations ran under
	Seed      int64    `json:"seed"`
	Pop       int      `json:"pop"`
	Budget    int      `json:"budget"`
	Workloads []string `json:"workloads"`
	Sampling  string   `json:"sampling,omitempty"` // uarch.Sampling.String(), "" exact
	DynTarget uint64   `json:"dyn_target"`         // suite calibration target
	Inject    int      `json:"inject,omitempty"`   // test-hook fault position
}

// ckptLine is one JSONL record: exactly one of the kinds. The meta line is
// first; each completed generation appends one gen line containing the
// post-selection population (order significant — tournament selection reads
// it positionally) and the evaluations that generation performed.
type ckptLine struct {
	Kind string `json:"kind"` // "meta" or "gen"

	Meta *Meta `json:"meta,omitempty"`

	Gen        int      `json:"gen,omitempty"`
	Evals      int      `json:"evals,omitempty"` // cumulative unique evaluations
	Population []Genome `json:"population,omitempty"`
	Fresh      []Eval   `json:"fresh,omitempty"` // evaluations this generation ran
}

// Checkpoint is the append-only JSONL persistence for a search. One write
// per completed generation keeps the torn-write window to a single line; a
// torn final line (SIGKILL mid-append) is detected and dropped on load, so
// resume restarts from the last complete generation.
type Checkpoint struct {
	f    *os.File
	meta Meta
	gens []ckptLine // complete generation records, ascending contiguous
}

// OpenCheckpoint opens path for a search with the given meta. With resume
// false the file is created or truncated and the meta line written; with
// resume true an existing file is loaded — its meta must equal meta — and
// subsequent generations append after the ones already recorded. Resuming a
// missing or empty file degrades to a fresh start.
func OpenCheckpoint(path string, meta Meta, resume bool) (*Checkpoint, error) {
	meta.Lattice = latticeVersion
	meta.Model = uarch.ModelVersion
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if len(bytes.TrimSpace(data)) > 0 {
			return loadCheckpoint(path, data, meta)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{f: f, meta: meta}
	if err := ck.appendLine(ckptLine{Kind: "meta", Meta: &meta}); err != nil {
		f.Close()
		return nil, err
	}
	return ck, nil
}

func loadCheckpoint(path string, data []byte, want Meta) (*Checkpoint, error) {
	ck := &Checkpoint{}
	haveMeta := false
	err := jsonl.Each(data, func(line ckptLine) error {
		switch line.Kind {
		case "meta":
			if haveMeta || len(ck.gens) > 0 {
				return errors.New("duplicate or misplaced meta line")
			}
			if line.Meta == nil {
				return errors.New("empty meta line")
			}
			haveMeta, ck.meta = true, *line.Meta
			if !reflect.DeepEqual(ck.meta, want) {
				return fmt.Errorf("taken with different parameters\n  have: %+v\n  want: %+v\n(delete the file or rerun with matching flags)",
					ck.meta, want)
			}
		case "gen":
			if line.Gen != len(ck.gens) {
				return fmt.Errorf("generation %d out of order (want %d)", line.Gen, len(ck.gens))
			}
			for _, g := range line.Population {
				if !g.valid() {
					return fmt.Errorf("generation %d holds a genome outside the lattice", line.Gen)
				}
			}
			for _, e := range line.Fresh {
				if !e.Genome.valid() {
					return fmt.Errorf("generation %d evaluated a genome outside the lattice", line.Gen)
				}
			}
			ck.gens = append(ck.gens, line)
		default:
			return fmt.Errorf("unknown record kind %q", line.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	if !haveMeta {
		return nil, fmt.Errorf("explore: checkpoint %s has no meta line", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ck.f = f
	return ck, nil
}

// Generations reports how many complete generations the checkpoint holds.
func (ck *Checkpoint) Generations() int { return len(ck.gens) }

// appendGen records one completed generation: cumulative evaluation count,
// the post-selection population, and the evaluations performed. One write
// call, so a crash tears at most this line.
func (ck *Checkpoint) appendGen(gen, evals int, population []Genome, fresh []Eval) error {
	return ck.appendLine(ckptLine{Kind: "gen", Gen: gen, Evals: evals, Population: population, Fresh: fresh})
}

func (ck *Checkpoint) appendLine(line ckptLine) error {
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	if _, err := ck.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return ck.f.Sync()
}

// Close releases the underlying file.
func (ck *Checkpoint) Close() error { return ck.f.Close() }

// restore seeds the searcher from a checkpoint's completed generations and
// returns the next generation index to run. No simulation happens here: the
// archive is rebuilt from recorded evaluations, so a resumed search only
// pays for generations the original never finished. (Points the memo cache
// would recompute identically anyway — both are deterministic — but resume
// must not depend on the simulator at all.)
func (s *searcher) restore(ck *Checkpoint) (int, error) {
	for _, gen := range ck.gens {
		for _, e := range gen.Fresh {
			s.archiveEval(e)
		}
		s.pop = append([]Genome(nil), gen.Population...)
		s.evals = gen.Evals
	}
	return len(ck.gens), nil
}
