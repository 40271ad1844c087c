package core

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/compilequeue"
	"repro/internal/parser"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Library is the shared code store behind one or more engines: the
// registered function sources, the compiled-code repository, and
// (optionally) the asynchronous compile pool. A single-session engine
// owns a private library; the evaluation daemon creates one process-
// wide Library and hands it to every session engine via
// Options.Library, so one session's JIT compile of qmr(A,b) warms every
// other session.
//
// Sharing contract: the library models one snooped source directory,
// exactly like the paper's repository. Function definitions are global
// to the library — when any engine (re)defines f, the new body is
// published to all engines and the repository generation for f advances,
// so in-flight compile jobs against the old body publish into the void
// (repo.InsertAt drops them) and no engine can ever run code compiled
// from another generation's source. Workspaces remain per-engine; only
// code is shared.
type Library struct {
	// Function definitions live in the repository's per-function state,
	// next to the generation and the entries compiled from them, so one
	// lock-free load resolves a name to a consistent (definition,
	// generation, code) triple. fmu serialises the writers that decide
	// whether a definition changes (register, LoadSnapshot,
	// ApplyReplicated) and guards defTimes.
	fmu sync.RWMutex
	// defTimes stamps each function's last source change (unix nanos).
	// Cluster replication uses it as a last-writer-wins tiebreak: a
	// replicated redefinition is adopted only when strictly newer than
	// the live one, so a delayed replica of an old source can never
	// clobber a newer definition. Locally registered functions are
	// stamped with the local clock; replica-applied ones carry the
	// origin's stamp; snapshot-restored ones are left at zero (the
	// snapshot format predates clustering, and "any explicit definition
	// beats a restored one" is the safe default).
	defTimes map[string]int64
	repo     *repo.Repository
	// queue is the background compile pool (nil unless AsyncCompile or
	// Tiered asked for one). It is owned by the library and never leaves
	// this file: engines reach it through submit and never close it.
	queue *compilequeue.Pool
	// profiles holds the tiering counters. Always present (so /metrics
	// can read it unconditionally); it only accumulates when an attached
	// engine tiers up or runs with Options.Tiered.
	profiles *profile.Store

	// writer is the write-behind snapshotter (nil unless
	// EnablePersistence attached one) and loadStats the record of the
	// warm-start attempt; pmu guards both.
	pmu       sync.Mutex
	writer    *persist.Writer
	loadStats persist.LoadStats

	// journal is the tiering event journal (may be nil — every Record
	// call is nil-safe): promotions, evictions, snapshot load/flush, and
	// cause-attributed deopts, shared by everything attached to this
	// library.
	journal *telemetry.Journal
}

// LibraryOptions configure a shared library.
type LibraryOptions struct {
	// AsyncCompile starts a background compile pool. An attached engine
	// compiles on it (single-flight deduplicated across all engines) when
	// its own Options say so — AsyncCompile, or Tiered with TierJIT — and
	// inline on the calling goroutine otherwise.
	AsyncCompile bool
	// CompileWorkers bounds the pool (0 = GOMAXPROCS). Ignored unless
	// AsyncCompile or Tiered starts one.
	CompileWorkers int
	// RepoMaxEntries caps the live compiled entries per function name,
	// evicting the least-hit entry on overflow. 0 = unbounded. A
	// long-lived daemon sets a cap so signature churn cannot grow the
	// repository without bound.
	RepoMaxEntries int
	// Tiered starts the compile pool even without AsyncCompile: tiered
	// execution promotes hot signatures and compiles OSR continuations
	// in the background, which needs workers.
	Tiered bool
	// Tracer, when set, records queue-wait and job-run spans for every
	// background compile job on the library's pool.
	Tracer *telemetry.Tracer
	// Journal, when set, receives the library's tiering events
	// (promotions, evictions, snapshot load/flush, deopts with causes).
	Journal *telemetry.Journal
}

// NewLibrary creates a shared code library.
func NewLibrary(opts LibraryOptions) *Library {
	l := &Library{
		defTimes: make(map[string]int64),
		repo:     repo.NewBounded(opts.RepoMaxEntries),
		profiles: profile.NewStore(),
		journal:  opts.Journal,
	}
	l.repo.SetJournal(opts.Journal)
	if opts.AsyncCompile || opts.Tiered {
		workers := opts.CompileWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		l.queue = compilequeue.New(workers)
		l.queue.SetTracer(opts.Tracer)
	}
	return l
}

// Journal returns the library's tiering event journal (nil when none
// was attached).
func (l *Library) Journal() *telemetry.Journal { return l.journal }

// Close shuts down the library's compile pool (no-op in sync mode) and
// then flushes and closes the persistence writer, so the final snapshot
// includes every entry the draining compile queue published. Queued
// jobs finish first; jobs submitted later run inline, so attached
// engines keep working synchronously.
func (l *Library) Close() {
	if l.queue != nil {
		l.queue.Close()
	}
	l.pmu.Lock()
	w := l.writer
	l.pmu.Unlock()
	if w != nil {
		w.Close()
	}
}

// Drain blocks until all in-flight background compile jobs have
// published (or been dropped as stale). A no-op in synchronous mode.
func (l *Library) Drain() {
	if l.queue != nil {
		l.queue.Drain()
	}
}

// Repo exposes the shared repository (stats, dumps, tests).
func (l *Library) Repo() *repo.Repository { return l.repo }

// submit is the only door to the compile pool: every compile an engine
// starts — speculative precompile, miss, tier-up promotion, OSR
// continuation — comes through it. background is the submitting engine's
// policy, derived from its options. A synchronous engine (or any engine
// on a library without a pool) runs job on the calling goroutine and
// gets a finished ticket, leaving no trace in QueueStats. Otherwise the
// job is submitted single-flight under key() — formatted only on this
// branch — unless landed (nil for jobs that check for themselves)
// reports, under the pool's lock, that the result is already published.
// pooled tells the caller whether a wait on the ticket is a queue wait.
func (l *Library) submit(background bool, key func() string, landed func() bool, job func() error) (t *compilequeue.Ticket, pooled bool) {
	if !background || l.queue == nil {
		return compilequeue.Done(job()), false
	}
	t, _ = l.queue.DoUnless(key(), landed, job)
	return t, true
}

// QueueStats returns the compile pool's counters (zero in sync mode).
func (l *Library) QueueStats() compilequeue.Stats {
	if l.queue == nil {
		return compilequeue.Stats{}
	}
	return l.queue.Stats()
}

// ProfileStats returns the tiering counters for /metrics.
func (l *Library) ProfileStats() profile.Stats { return l.profiles.Stats() }

// Lookup resolves a registered function by name (nil if absent). Safe
// from any goroutine, lock-free.
func (l *Library) Lookup(name string) *ast.Function {
	return l.repo.State(name).Fn
}

// defined returns the states of all registered functions, sorted by
// name. Each state is one consistent cut of its function: source,
// generation and entries belong together.
func (l *Library) defined() []*repo.FuncState {
	var out []*repo.FuncState
	l.repo.Each(func(_ string, st *repo.FuncState) {
		if st.Fn != nil {
			out = append(out, st)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.Name < out[j].Fn.Name })
	return out
}

// Names returns the registered function names, sorted.
func (l *Library) Names() []string {
	sts := l.defined()
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.Fn.Name
	}
	return out
}

// register publishes a (re)definition: the new body, the advanced
// generation and the emptied entry list become visible in one atomic
// store (repo.Define), so an async job that observes the new generation
// resolves the new body, and no caller can pair the new body with old
// code. Functions compiled against the old body — they inlined it or
// took its return summary — are invalidated with it.
//
// A redefinition whose source text is byte-identical to the registered
// one is a no-op — the paper's snooper invalidates on *change*, not on
// every sighting of a .m file. This is what lets a warm-started daemon
// keep its loaded entries when sessions re-send the same definitions:
// without it, every replayed definition would advance the generation
// and drop the code the snapshot just restored.
func (l *Library) register(fn *ast.Function) {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if old := l.Lookup(fn.Name); old != nil && old.Source != "" && old.Source == fn.Source {
		return
	}
	l.defTimes[fn.Name] = time.Now().UnixNano()
	l.repo.Define(fn, persist.HashSource(fn.Source))
}

// DefTime returns the last-writer-wins stamp of a function's current
// definition (0 when unknown — never registered, or restored from a
// pre-cluster snapshot).
func (l *Library) DefTime(name string) int64 {
	l.fmu.RLock()
	defer l.fmu.RUnlock()
	return l.defTimes[name]
}

// --- persistence -------------------------------------------------------------

// ExportSnapshot captures the library's serializable state: every
// registered function source plus its live compiled entries. Each
// function is exported from one load of its state, so its source and its
// entries are always from the same generation. Safe from any goroutine;
// the write-behind snapshotter is the main caller.
func (l *Library) ExportSnapshot() *persist.Snapshot {
	sts := l.defined()
	snap := &persist.Snapshot{Funcs: make([]persist.FuncState, 0, len(sts))}
	for _, st := range sts {
		fs := persist.FuncState{Name: st.Fn.Name, Source: st.Fn.Source, SrcHash: st.SrcHash}
		for _, e := range st.Entries {
			fs.Entries = append(fs.Entries, entryState(st.SrcHash, e))
		}
		snap.Funcs = append(snap.Funcs, fs)
	}
	return snap
}

// entryState renders a repository entry in its serializable form.
func entryState(srcHash uint64, e *repo.Entry) persist.EntryState {
	es := persist.EntryState{
		SrcHash:     srcHash,
		Sig:         e.Sig,
		Quality:     uint8(e.Quality),
		Speculative: e.Speculative,
		Placeholder: e.Placeholder,
		Hits:        e.Hits(),
		Ret:         e.Ret,
	}
	for _, d := range e.Deps {
		es.Deps = append(es.Deps, persist.Dep{Name: d.Name, SrcHash: d.SrcHash})
	}
	if e.Code != nil {
		es.Prog = e.Code.P
	}
	return es
}

// restoreEntry rebuilds a repository entry from its serialized form,
// re-preparing the program against this build's tables. The string names
// the validation failure ("" on success) for the ingest counters.
func restoreEntry(es *persist.EntryState, hits int64) (*repo.Entry, string) {
	q := repo.Quality(es.Quality)
	if q > repo.QualityOpt {
		return nil, "bad-quality"
	}
	var code *vm.Compiled
	if es.Prog != nil {
		var err error
		if code, err = vm.Prepare(es.Prog); err != nil {
			return nil, "prepare-failed"
		}
	} else if q != repo.QualityInterp {
		// A compiled-quality entry with no program is damage the codec
		// cannot see; drop it.
		return nil, "missing-program"
	}
	e := repo.Restored(es.Sig, code, q, es.Speculative, hits)
	e.Placeholder = es.Placeholder && q == repo.QualityInterp
	e.Ret = es.Ret
	for _, d := range es.Deps {
		e.Deps = append(e.Deps, repo.Dep{Name: d.Name, SrcHash: d.SrcHash})
	}
	return e, ""
}

// LoadSnapshot warm-starts the library from a decoded snapshot:
// function sources are registered (without invalidation — the library
// is expected to be empty or to already hold identical sources) and
// their entries re-prepared and published under stats.Loaded. Content
// that fails validation is dropped, never trusted:
//
//   - a function whose recorded source hash does not match its source
//     text, or whose source no longer parses, is skipped entirely;
//   - a function already registered with *different* source keeps the
//     live definition and the snapshot's entries are dropped (the
//     cross-lifetime form of "a redefinition must not resurrect stale
//     code");
//   - an entry whose source hash disagrees with its function's, whose
//     program the current build cannot prepare, or that was compiled
//     against another function (inlined, or asked for its return
//     summary) whose registered source is not the one it saw, is dropped.
func (l *Library) LoadSnapshot(snap *persist.Snapshot) persist.LoadStats {
	var st persist.LoadStats
	st.Attempted = true
	// First every source, then every entry: an entry is only published
	// when the functions it was compiled against are registered with the
	// source it saw, whatever order the snapshot lists them in.
	accepted := make([]*persist.FuncState, 0, len(snap.Funcs))
	for i := range snap.Funcs {
		fs := &snap.Funcs[i]
		var fn *ast.Function
		if persist.HashSource(fs.Source) == fs.SrcHash {
			fn = parseDefinition(fs.Source, fs.Name)
		}
		if fn != nil {
			l.fmu.Lock()
			if old := l.Lookup(fs.Name); old == nil {
				l.repo.Define(fn, fs.SrcHash)
			} else if old.Source != fn.Source {
				// A live definition with different source wins over the
				// snapshot unconditionally.
				fn = nil
			}
			l.fmu.Unlock()
		}
		if fn == nil {
			st.RejectedFunctions++
			st.RejectedEntries += len(fs.Entries)
			continue
		}
		st.LoadedFunctions++
		accepted = append(accepted, fs)
	}

	for _, fs := range accepted {
		for i := range fs.Entries {
			es := &fs.Entries[i]
			if es.SrcHash != fs.SrcHash {
				st.RejectedEntries++
				continue
			}
			e, fail := restoreEntry(es, es.Hits)
			if fail != "" || !l.repo.InsertLoaded(fs.Name, e) {
				st.RejectedEntries++
				continue
			}
			st.LoadedEntries++
		}
	}
	return st
}

// parseDefinition parses src, which must hold function definitions only,
// and returns the one called name (nil when it is absent or src is not
// such a file).
func parseDefinition(src, name string) *ast.Function {
	file, err := parser.Parse(src)
	if err != nil || len(file.Stmts) > 0 {
		return nil
	}
	for _, f := range file.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EnablePersistence warm-starts the library from the snapshot at path
// (when one exists) and attaches a write-behind snapshotter that keeps
// the file current from then on. Stale, corrupt, truncated, or
// foreign-build snapshots are rejected as a whole and the library cold
// starts — the returned LoadStats records what happened; persistence
// failures are never fatal. debounce <= 0 selects the writer default.
func (l *Library) EnablePersistence(path string, debounce time.Duration) persist.LoadStats {
	var st persist.LoadStats
	if data, err := os.ReadFile(path); err == nil {
		st.Attempted = true
		if snap, derr := persist.Decode(data); derr != nil {
			st.Error = derr.Error()
		} else {
			st = l.LoadSnapshot(snap)
		}
	} else if !os.IsNotExist(err) {
		st.Attempted = true
		st.Error = err.Error()
	}
	w := persist.NewWriter(path, l.ExportSnapshot, debounce)
	w.SetJournal(l.journal)
	l.pmu.Lock()
	l.writer = w
	l.loadStats = st
	l.pmu.Unlock()
	l.repo.AddOnChange(w.Notify)
	if st.Attempted {
		cause := "warm-start"
		if st.Error != "" {
			cause = "rejected"
		}
		l.journal.Record(telemetry.Event{
			Kind:  telemetry.EventSnapshotLoad,
			Cause: cause,
			Detail: fmt.Sprintf("loaded %d entries/%d functions, rejected %d/%d, path=%s",
				st.LoadedEntries, st.LoadedFunctions, st.RejectedEntries, st.RejectedFunctions, path),
		})
	}
	return st
}

// --- cluster replication -----------------------------------------------------

// ApplyReplicated applies one replication record received from a
// cluster peer: the function source (adopted under last-writer-wins
// when it differs from the live definition) and, when the record
// carries one, a compiled entry published via repo.InsertReplicated.
// The bool reports whether anything was applied; the string names the
// outcome for the ingest counters and is stable enough to assert on:
//
//	"source"            source adopted or already current, no entry in the record
//	"applied"           the compiled entry was published
//	"duplicate"         an equal-or-better entry (or a racing local compile) already serves the signature
//	"stale-definition"  the record's source is older than the live definition
//	"stale-dependency"  the entry was compiled against (inlined, or took a return
//	                    summary from) a function whose source here is not the one it saw
//	"source-hash-mismatch", "source-parse", "entry-hash-mismatch",
//	"bad-quality", "missing-program", "prepare-failed"
//	                    validation failures; the record is dropped whole
//
// The staleness contract matches the warm-start loader: a record is
// never trusted past its guards, an old definition can never clobber a
// newer one (DefTime strictly-greater wins; an exact-stamp tie between
// differing sources breaks deterministically on the source hash so the
// fleet converges on one definition), the repository generation is
// captured under the definition lock so a local redefinition racing the
// apply drops the entry rather than resurrecting code for dead source,
// and an entry compiled against a function this node holds other source
// for (or none yet) is refused until anti-entropy offers it again.
func (l *Library) ApplyReplicated(rec *persist.EntryRecord) (bool, string) {
	if persist.HashSource(rec.Source) != rec.SrcHash {
		return false, "source-hash-mismatch"
	}
	fn := parseDefinition(rec.Source, rec.Func)
	if fn == nil {
		return false, "source-parse"
	}

	l.fmu.Lock()
	if old := l.Lookup(rec.Func); old == nil {
		l.defTimes[rec.Func] = rec.DefTime
		l.repo.Define(fn, rec.SrcHash)
	} else if old.Source == rec.Source {
		// Same definition; adopt the newer stamp so peer digests
		// converge instead of ping-ponging in anti-entropy rounds.
		if rec.DefTime > l.defTimes[rec.Func] {
			l.defTimes[rec.Func] = rec.DefTime
		}
	} else if rec.DefTime > l.defTimes[rec.Func] ||
		(rec.DefTime == l.defTimes[rec.Func] && rec.SrcHash > persist.HashSource(old.Source)) {
		// Genuine remote redefinition, published exactly like a local
		// register so no engine can pair the new source with
		// old-generation code. An exact DefTime tie between *different*
		// sources (two nodes registering independently within clock
		// granularity) breaks on the source hash — higher hash wins on
		// every node, so the fleet converges on one definition instead of
		// diverging permanently.
		l.defTimes[rec.Func] = rec.DefTime
		l.repo.Define(fn, rec.SrcHash)
	} else {
		l.fmu.Unlock()
		return false, "stale-definition"
	}
	gen := l.repo.Generation(rec.Func)
	l.fmu.Unlock()

	if rec.Entry == nil {
		return true, "source"
	}
	if rec.Entry.SrcHash != rec.SrcHash {
		return false, "entry-hash-mismatch"
	}
	// Hits start at zero: the origin's hit counts rank *its* working
	// set, and seeding them here would shield never-used replicas from
	// least-hit eviction.
	e, fail := restoreEntry(rec.Entry, 0)
	if fail != "" {
		return false, fail
	}
	if !l.repo.Current(e.Deps) {
		return false, "stale-dependency"
	}
	if !l.repo.InsertReplicated(rec.Func, e, gen, rec.Origin) {
		return false, "duplicate"
	}
	return true, "applied"
}

// ExportRecords renders the library's current state as replication
// records: for every registered function, one record per live compiled
// entry (each carrying the full source), or a single source-only record
// when no entries exist yet. origin is stamped on every record. When
// includeReplicated is false, entries that were themselves applied from
// a peer are skipped — the push path uses this so replicas don't echo
// around the cluster; anti-entropy repair passes true so any node can
// heal any other. Each function is exported from one load of its state
// under the definition lock, so sources, stamps, and entries are always
// from the same generation.
func (l *Library) ExportRecords(origin string, includeReplicated bool) []persist.EntryRecord {
	l.fmu.RLock()
	defer l.fmu.RUnlock()
	var out []persist.EntryRecord
	for _, st := range l.defined() {
		base := persist.EntryRecord{
			Origin:  origin,
			Func:    st.Fn.Name,
			Source:  st.Fn.Source,
			SrcHash: st.SrcHash,
			DefTime: l.defTimes[st.Fn.Name],
		}
		n := 0
		for _, e := range st.Entries {
			if e.Replicated && !includeReplicated {
				continue
			}
			rec := base
			es := entryState(st.SrcHash, e)
			rec.Entry = &es
			out = append(out, rec)
			n++
		}
		if n == 0 {
			out = append(out, base)
		}
	}
	return out
}

// ExportDigest summarizes the library for anti-entropy reconciliation:
// per function, the source hash, definition stamp, and sorted exact-
// signature keys of every live entry (replicated ones included — a
// digest describes what this node *has*, not what it compiled). Peers
// compare digests and push only what the other side lacks.
func (l *Library) ExportDigest() map[string]persist.FuncDigest {
	l.fmu.RLock()
	defer l.fmu.RUnlock()
	sts := l.defined()
	out := make(map[string]persist.FuncDigest, len(sts))
	for _, st := range sts {
		d := persist.FuncDigest{
			SrcHash: st.SrcHash,
			DefTime: l.defTimes[st.Fn.Name],
		}
		for _, e := range st.Entries {
			d.Entries = append(d.Entries, e.Sig.Key())
		}
		sort.Strings(d.Entries)
		out[st.Fn.Name] = d
	}
	return out
}

// PersistMetrics returns the persistence surface for /metrics: the
// warm-start load stats plus the write-behind writer counters. The
// zero value (Enabled false) means persistence is off.
func (l *Library) PersistMetrics() persist.Metrics {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	if l.writer == nil {
		return persist.Metrics{}
	}
	return persist.Metrics{
		Enabled: true,
		Path:    l.writer.Path(),
		Load:    l.loadStats,
		Writer:  l.writer.Stats(),
	}
}
