package uarch

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"braid/internal/bpred"
	"braid/internal/interp"
	"braid/internal/isa"
)

// traceEntry is one dynamic instruction of a program's execution: everything
// fetch needs that previously came from stepping the functional interpreter.
// It is deliberately pointer-free (the static instruction is named by index)
// so cached traces cost the garbage collector nothing to scan.
type traceEntry struct {
	idx   int32
	taken bool
	addr  uint64
}

// traceCap bounds pre-execution so a non-halting program cannot hang trace
// construction; such a program falls back to the live interpreter and runs
// into the engine's MaxCycles budget as before.
var traceCap = 1 << 26 // a variable only so tests can reach the cap cheaply

// Source-operand kinds for staticMeta (where buildDyn finds each producer).
const (
	srcNone = iota // no register source in this slot
	srcInt         // BEU-internal file, owner table index srcIdx
	srcExt         // external file, architectural register srcIdx
)

// staticMeta is everything buildDyn derives from a static instruction,
// precomputed once per program so the per-fetch work is a handful of field
// copies and owner-table lookups instead of opcode-table dereferences.
type staticMeta struct {
	isLoad, isStore, isBranch bool
	isCondBranch, isHalt      bool
	braidStart                bool
	hasExtDest, hasIntDest    bool

	class      uint8 // functional-unit class (indexes Machine.latTab)
	memBytes   uint8
	aliasClass uint8

	s1Kind, s2Kind, s3Kind uint8 // third slot: conditional-move old dest
	s1Idx, s2Idx, s3Idx    uint8
	extDest, intDest       uint8 // valid when hasExtDest / hasIntDest
}

// predKey names a predictor geometry: the Config fields newPredictor reads.
type predKey struct {
	perfect          bool
	entries, history int
}

// replayEntry is one program's configuration-independent replay state. Each
// part is built at most once, on first use, under its own sync.Once, so
// workers preparing different programs never wait on each other and workers
// sharing a program wait only for the part they need.
type replayEntry struct {
	prog *isa.Program

	metaOnce  sync.Once
	meta      []staticMeta
	traceOnce sync.Once
	trace     []traceEntry

	mu       sync.Mutex
	outcomes map[predKey]*outcomeBits

	size atomic.Int64 // replay bytes of the parts built so far
}

// outcomeBits is the mispredict bitmap of one predictor geometry over the
// program's trace: bit i is set when the conditional branch at trace
// position i mispredicts.
type outcomeBits struct {
	once sync.Once
	bits []uint64
}

var replayCache struct {
	sync.Mutex
	m map[*isa.Program]*replayEntry
}

// replayOf returns p's cache entry, creating an empty one on first use. The
// cache-wide lock covers only the map; building happens in the entry.
func replayOf(p *isa.Program) *replayEntry {
	replayCache.Lock()
	defer replayCache.Unlock()
	e := replayCache.m[p]
	if e == nil {
		if replayCache.m == nil {
			replayCache.m = make(map[*isa.Program]*replayEntry)
		}
		e = &replayEntry{prog: p}
		replayCache.m[p] = e
	}
	return e
}

// Content-keyed sharing, for braidd. A server decodes a fresh *isa.Program
// for every request, so pointer keys alone would rebuild the replay state of
// every miss and never free it. sharedProgs maps an image hash to one
// canonical program whose replayCache slot every request for that image
// replays, and evicts idle programs LRU once their replay bytes pass
// replayBudget. In-process callers never hash: their programs keep plain
// pointer-keyed entries.

// replayBudgetBytes bounds the replay bytes sharedProgs keeps; DESIGN.md §5
// explains the size.
const replayBudgetBytes = 64 << 20

var replayBudget int64 = replayBudgetBytes // a variable only so tests can force eviction

// sharedProg is one resident image in sharedProgs.
type sharedProg struct {
	hash    string
	prog    *isa.Program
	rp      *replayEntry
	pins    int           // simulations running on prog
	counted int64         // rp's size as last added to sharedProgs.bytes
	idle    *list.Element // position in sharedProgs.lru while pins == 0
}

var sharedProgs struct {
	sync.Mutex
	m     map[string]*sharedProg
	lru   list.List // idle programs, most recently released first
	bytes int64
}

// PinProgram returns the canonical program for the image hash h (the
// program half of PointKey) and pins its replay state until release is
// called, exactly once. p must be a program whose image hashes to h; it
// becomes the canonical program when h is not resident. Every simulation of
// the returned program, under any configuration, replays one trace, one
// static-meta table and one bitmap per predictor geometry. A pinned program
// is never evicted.
func PinProgram(h string, p *isa.Program) (canon *isa.Program, release func()) {
	sharedProgs.Lock()
	defer sharedProgs.Unlock()
	s := sharedProgs.m[h]
	if s == nil {
		if sharedProgs.m == nil {
			sharedProgs.m = make(map[string]*sharedProg)
		}
		s = &sharedProg{hash: h, prog: p, rp: replayOf(p)}
		sharedProgs.m[h] = s
	} else if s.idle != nil {
		sharedProgs.lru.Remove(s.idle)
		s.idle = nil
	}
	s.pins++
	return s.prog, s.unpin
}

// unpin counts what the finished simulation built into the table's bytes,
// then evicts idle programs, least recently used first, down to the budget.
func (s *sharedProg) unpin() {
	sharedProgs.Lock()
	defer sharedProgs.Unlock()
	n := s.rp.size.Load()
	sharedProgs.bytes += n - s.counted
	s.counted = n
	if s.pins--; s.pins == 0 {
		s.idle = sharedProgs.lru.PushFront(s)
	}
	for sharedProgs.bytes > replayBudget && sharedProgs.lru.Len() > 0 {
		v := sharedProgs.lru.Remove(sharedProgs.lru.Back()).(*sharedProg)
		delete(sharedProgs.m, v.hash)
		sharedProgs.bytes -= v.counted
		replayCache.Lock()
		delete(replayCache.m, v.prog)
		replayCache.Unlock()
	}
}

// SharedReplay reports the programs resident in the content-keyed table
// and their replay bytes: braidd's replay_entries and replay_bytes gauges.
func SharedReplay() (entries int, bytes int64) {
	sharedProgs.Lock()
	defer sharedProgs.Unlock()
	return len(sharedProgs.m), sharedProgs.bytes
}

// staticMeta returns the program's precomputed static metadata (shared by
// every Machine simulating it).
func (e *replayEntry) staticMeta() []staticMeta {
	e.metaOnce.Do(func() {
		e.meta = programMeta(e.prog)
		e.size.Add(int64(len(e.meta)) * int64(unsafe.Sizeof(staticMeta{})))
	})
	return e.meta
}

// dynTrace returns the program's dynamic instruction stream. The simulator
// is functionally directed, so the stream depends only on the program —
// every Machine simulating it under any configuration replays one shared
// trace instead of re-executing the interpreter. Nil if the program does
// not halt within traceCap steps.
func (e *replayEntry) dynTrace() []traceEntry {
	e.traceOnce.Do(func() {
		e.trace = programTrace(e.prog)
		e.size.Add(int64(len(e.trace)) * int64(unsafe.Sizeof(traceEntry{})))
	})
	return e.trace
}

// mispredicts returns the mispredict bitmap for cfg's predictor geometry,
// or nil when the program has no trace. Fetch never leaves the correct
// path and trains the predictor once per conditional branch in trace
// order, so whether a dynamic branch mispredicts depends only on the
// program and the geometry — not on the core, the width, or the sampling
// geometry — and one predict-then-train pass decides it for every
// configuration.
func (e *replayEntry) mispredicts(cfg *Config) []uint64 {
	tr := e.dynTrace()
	if tr == nil {
		return nil
	}
	k := predKey{cfg.PerfectBP, cfg.PredEntries, cfg.PredHistory}
	e.mu.Lock()
	ob := e.outcomes[k]
	if ob == nil {
		if e.outcomes == nil {
			e.outcomes = make(map[predKey]*outcomeBits)
		}
		ob = &outcomeBits{}
		e.outcomes[k] = ob
	}
	e.mu.Unlock()
	ob.once.Do(func() {
		ob.bits = branchOutcomes(tr, e.staticMeta(), newPredictor(cfg))
		e.size.Add(int64(len(ob.bits)) * 8)
	})
	return ob.bits
}

// branchOutcomes replays tr's conditional branches through a cold
// predictor, predict then train, exactly as fetch would.
func branchOutcomes(tr []traceEntry, meta []staticMeta, pred bpred.Predictor) []uint64 {
	bits := make([]uint64, (len(tr)+63)/64)
	for i := range tr {
		e := &tr[i]
		if !meta[e.idx].isCondBranch {
			continue
		}
		addr := instrAddr(int(e.idx))
		if pred.Predict(addr, e.taken) != e.taken {
			bits[i>>6] |= 1 << (i & 63)
		}
		pred.Train(addr, e.taken)
	}
	return bits
}

// mispredicted reports bit pos of a mispredict bitmap.
func mispredicted(bits []uint64, pos int) bool {
	return bits[pos>>6]>>(pos&63)&1 != 0
}

// traceChunk is the trace build's append unit in entries (1 MiB). Full
// chunks are copied once into an exact-size trace; growing one slice by
// doubling would re-copy a multi-megabyte trace at every step.
const traceChunk = 1 << 16

// programTrace interprets p into its dynamic instruction stream. Returns
// nil if the program does not halt within traceCap steps. The result has
// len == cap.
func programTrace(p *isa.Program) []traceEntry {
	im := interp.New(p)
	var (
		full [][]traceEntry
		cur  []traceEntry // grows by append up to traceChunk, so small traces stay small
		n    int
		info interp.StepInfo
	)
	for {
		if n >= traceCap {
			return nil // non-halting
		}
		if err := im.Step(&info); err != nil {
			break // end of stream, exactly where live fetch stops
		}
		if len(cur) == traceChunk {
			full = append(full, cur)
			cur = make([]traceEntry, 0, traceChunk)
		}
		cur = append(cur, traceEntry{
			idx:   int32(info.Index),
			taken: info.Taken,
			addr:  info.Addr,
		})
		n++
	}
	tr := make([]traceEntry, n)
	off := 0
	for _, c := range full {
		off += copy(tr[off:], c)
	}
	copy(tr[off:], cur)
	return tr
}

// programMeta derives the per-static-instruction metadata of p.
func programMeta(p *isa.Program) []staticMeta {
	meta := make([]staticMeta, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Info()
		sm := &meta[i]
		sm.isLoad = info.Class == isa.ClassLoad
		sm.isStore = info.Class == isa.ClassStore
		sm.isBranch = in.IsBranch()
		sm.isCondBranch = in.IsCondBranch()
		sm.isHalt = in.IsHalt()
		sm.braidStart = in.Start
		sm.class = uint8(info.Class)
		sm.memBytes = uint8(info.MemBytes)
		sm.aliasClass = in.AliasClass
		if info.NumSrcs >= 1 {
			if in.T1 {
				sm.s1Kind, sm.s1Idx = srcInt, in.I1
			} else if in.Src1 != isa.RegNone && in.Src1 != isa.RegZero {
				sm.s1Kind, sm.s1Idx = srcExt, uint8(in.Src1)
			}
		}
		if info.NumSrcs >= 2 && !in.HasImm {
			if in.T2 {
				sm.s2Kind, sm.s2Idx = srcInt, in.I2
			} else if in.Src2 != isa.RegNone && in.Src2 != isa.RegZero {
				sm.s2Kind, sm.s2Idx = srcExt, uint8(in.Src2)
			}
		}
		if info.ReadsDest && in.Dest != isa.RegNone && in.Dest != isa.RegZero {
			// Conditional moves read their old destination from the
			// external file (the braid ISA has no T bit for it).
			sm.s3Kind, sm.s3Idx = srcExt, uint8(in.Dest)
		}
		if in.WritesReg() && in.Dest != isa.RegZero && (in.EDest || !in.IDest) {
			sm.hasExtDest = true
			sm.extDest = uint8(in.Dest)
		}
		if in.IDest {
			sm.hasIntDest = true
			sm.intDest = in.IDestIdx
		}
	}
	return meta
}
