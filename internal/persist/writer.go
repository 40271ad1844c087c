package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// WriterStats counts snapshot-writer traffic (all fields are updated
// atomically; read them through Writer.Stats).
type WriterStats struct {
	Notifies        uint64 `json:"notifies" metric:"majic_persist_notifies_total,counter" help:"Repository mutations notified to the snapshotter."`
	Saves           uint64 `json:"saves" metric:"majic_persist_saves_total,counter" help:"Snapshots written."`
	SaveErrors      uint64 `json:"save_errors" metric:"majic_persist_save_errors_total,counter" help:"Snapshot writes that failed."`
	SnapshotBytes   uint64 `json:"snapshot_bytes" metric:"majic_persist_snapshot_bytes,gauge" help:"Size of the last written snapshot."`
	SnapshotEntries uint64 `json:"snapshot_entries" metric:"majic_persist_snapshot_entries,gauge" help:"Compiled entries in the last written snapshot."`
}

// Writer is the write-behind snapshotter: repository mutations call
// Notify, and the writer persists an Encode of the current state a
// debounce interval later — so a burst of inserts (a cold start
// compiling the whole working set) coalesces into one write, while
// MaxDelay bounds how stale the on-disk snapshot can get under a
// continuous mutation stream. Flush forces a synchronous save (the
// SIGTERM drain path); saves are atomic (temp file + rename), so a
// crash mid-write leaves the previous snapshot intact, never a torn
// file.
type Writer struct {
	path string
	src  func() *Snapshot

	// Delay is the quiet period after the last Notify before a save;
	// MaxDelay caps the total deferral since the first unsaved change.
	delay    time.Duration
	maxDelay time.Duration

	mu         sync.Mutex
	dirty      bool
	firstDirty time.Time
	timer      *time.Timer
	closed     bool

	// saveMu serializes actual saves (the debounce goroutine racing a
	// Flush).
	saveMu sync.Mutex

	notifies, saves, saveErrors   atomic.Uint64
	snapshotBytes, snapshotCounts atomic.Uint64

	// journal, when set, receives one snapshot_flush event per
	// successful save (nil-safe; saves are debounced and rare).
	journal atomic.Pointer[telemetry.Journal]
}

// NewWriter creates a write-behind snapshotter for path. src must be
// safe to call from any goroutine and return a self-consistent
// snapshot; delay <= 0 selects the default debounce (200ms, capped at
// 2s of total deferral).
func NewWriter(path string, src func() *Snapshot, delay time.Duration) *Writer {
	if delay <= 0 {
		delay = 200 * time.Millisecond
	}
	maxDelay := 10 * delay
	if maxDelay < time.Second {
		maxDelay = time.Second
	}
	return &Writer{path: path, src: src, delay: delay, maxDelay: maxDelay}
}

// Path returns the snapshot file path.
func (w *Writer) Path() string { return w.path }

// SetJournal attaches the tiering event journal; each completed save
// records a snapshot_flush event.
func (w *Writer) SetJournal(j *telemetry.Journal) {
	if j != nil {
		w.journal.Store(j)
	}
}

// Notify marks the repository dirty and (re)arms the debounced save.
// Safe from any goroutine; cheap enough for every repository mutation.
func (w *Writer) Notify() {
	w.notifies.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	now := time.Now()
	if !w.dirty {
		w.dirty = true
		w.firstDirty = now
	}
	d := w.delay
	if rem := w.firstDirty.Add(w.maxDelay).Sub(now); rem < d {
		d = rem
		if d < 0 {
			d = 0
		}
	}
	if w.timer == nil {
		w.timer = time.AfterFunc(d, w.timedSave)
	} else {
		w.timer.Reset(d)
	}
}

func (w *Writer) timedSave() {
	w.save()
}

// Flush synchronously persists the current state if there are unsaved
// changes (and is a no-op otherwise). The graceful-shutdown drain calls
// it after the compile queue has quiesced, so the final snapshot
// includes every published entry.
func (w *Writer) Flush() error {
	w.mu.Lock()
	dirty := w.dirty
	w.mu.Unlock()
	if !dirty {
		return nil
	}
	return w.save()
}

// Close stops the debounce timer and flushes pending changes. The
// writer refuses further saves afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	dirty := w.dirty
	w.closed = true
	w.mu.Unlock()
	if !dirty {
		return nil
	}
	return w.saveLocked()
}

func (w *Writer) save() error {
	w.mu.Lock()
	if w.closed || !w.dirty {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.saveLocked()
}

func (w *Writer) saveLocked() error {
	w.saveMu.Lock()
	defer w.saveMu.Unlock()

	// Clear dirty before building the snapshot: a mutation that lands
	// while we encode re-marks dirty and schedules another save, so the
	// on-disk state converges to the live state.
	w.mu.Lock()
	w.dirty = false
	w.mu.Unlock()

	snap := w.src()
	data := Encode(snap)
	if err := writeAtomic(w.path, data); err != nil {
		w.saveErrors.Add(1)
		// The state is still unsaved; re-mark so a later Notify/Flush
		// retries.
		w.mu.Lock()
		if !w.closed {
			w.dirty = true
		}
		w.mu.Unlock()
		return err
	}
	w.saves.Add(1)
	w.snapshotBytes.Store(uint64(len(data)))
	n := 0
	for _, fs := range snap.Funcs {
		n += len(fs.Entries)
	}
	w.snapshotCounts.Store(uint64(n))
	w.journal.Load().Record(telemetry.Event{
		Kind:   telemetry.EventSnapshotFlush,
		Cause:  "write-behind",
		Detail: fmt.Sprintf("bytes=%d entries=%d path=%s", len(data), n, w.path),
	})
	return nil
}

// writeAtomic writes data to path via a temp file + rename in the same
// directory, so readers only ever observe a complete snapshot.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".majic-repo-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats returns a snapshot of the writer counters.
func (w *Writer) Stats() WriterStats {
	return WriterStats{
		Notifies:        w.notifies.Load(),
		Saves:           w.saves.Load(),
		SaveErrors:      w.saveErrors.Load(),
		SnapshotBytes:   w.snapshotBytes.Load(),
		SnapshotEntries: w.snapshotCounts.Load(),
	}
}

// LoadStats describes one warm-start attempt (the /metrics surface).
type LoadStats struct {
	// Attempted is true when a snapshot file existed.
	Attempted bool `json:"attempted" metric:"-"`
	// Error is the whole-snapshot rejection reason ("" when the file
	// decoded cleanly or did not exist). A rejected snapshot means a
	// cold start, not a failure.
	Error string `json:"error,omitempty" metric:"-"`
	// LoadedFunctions / LoadedEntries count what the warm start
	// restored.
	LoadedFunctions int `json:"loaded_functions" metric:"-"`
	LoadedEntries   int `json:"loaded_entries" metric:"majic_persist_loaded_entries,gauge" help:"Entries restored by the warm start."`
	// RejectedFunctions / RejectedEntries count snapshot content dropped
	// by validation: source-hash mismatches (stale code), unparseable
	// sources, or programs the current build cannot prepare.
	RejectedFunctions int `json:"rejected_functions" metric:"-"`
	RejectedEntries   int `json:"rejected_entries" metric:"majic_persist_rejected_entries,gauge" help:"Snapshot entries dropped by validation."`
}

// Metrics is the combined persistence surface exposed at /metrics.
type Metrics struct {
	Enabled bool        `json:"enabled" metric:"majic_persist_enabled,gauge,gate" help:"1 when write-behind persistence is attached."`
	Path    string      `json:"path,omitempty" metric:"-"`
	Load    LoadStats   `json:"load"`
	Writer  WriterStats `json:"writer"`
}
