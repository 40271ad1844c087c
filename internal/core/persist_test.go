package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/persist"
	"repro/internal/repo"
)

const persistSrc = "function y = padd(x)\ny = x + 1;\n"

// compileOnce defines src on a fresh engine over lib and calls fn once
// so the repository holds a JIT entry for it.
func compileOnce(t *testing.T, lib *Library, src, fn string) *mat.Value {
	t.Helper()
	e := New(Options{Tier: TierJIT, Library: lib})
	defer e.Close()
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	out, err := e.Call(fn, []*mat.Value{mat.Scalar(41)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// TestRegisterIdenticalSourceKeepsEntries pins the registration
// semantics warm restarts depend on: redefining a function with
// byte-identical source must NOT invalidate its compiled entries
// (the paper's snooper invalidates on change, and a replayed session
// re-sends the same definitions it sent last lifetime).
func TestRegisterIdenticalSourceKeepsEntries(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	compileOnce(t, lib, persistSrc, "padd")
	if st := lib.Repo().Stats(); st.Inserts != 1 {
		t.Fatalf("setup: %+v", st)
	}

	compileOnce(t, lib, persistSrc, "padd") // identical redefinition
	st := lib.Repo().Stats()
	if st.Invalidation != 0 {
		t.Fatalf("identical redefinition invalidated: %+v", st)
	}
	if st.Inserts != 1 || st.Hits == 0 {
		t.Fatalf("identical redefinition recompiled: %+v", st)
	}

	// A changed body must still invalidate and recompile.
	compileOnce(t, lib, "function y = padd(x)\ny = x + 2;\n", "padd")
	st = lib.Repo().Stats()
	if st.Invalidation != 1 || st.Inserts != 2 {
		t.Fatalf("changed redefinition did not invalidate: %+v", st)
	}
}

// TestPersistenceWarmRestart is the in-process version of the CI
// warm-start smoke: compile, flush, build a second library on the same
// path, replay — zero misses, zero compiles, identical results.
func TestPersistenceWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.bin")

	lib := NewLibrary(LibraryOptions{})
	if st := lib.EnablePersistence(path, time.Hour); st.Attempted {
		t.Fatalf("first boot found a snapshot: %+v", st)
	}
	want := compileOnce(t, lib, persistSrc, "padd")
	lib.Close() // drain + flush on the way out
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close did not flush the snapshot: %v", err)
	}

	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	ls := warm.EnablePersistence(path, time.Hour)
	if !ls.Attempted || ls.Error != "" || ls.LoadedEntries == 0 || ls.RejectedEntries != 0 {
		t.Fatalf("warm boot: %+v", ls)
	}
	got := compileOnce(t, warm, persistSrc, "padd")
	st := warm.Repo().Stats()
	if st.Misses != 0 || st.Inserts != 0 {
		t.Fatalf("warm replay compiled: %+v", st)
	}
	if want.Re()[0] != got.Re()[0] {
		t.Fatalf("warm result %v != cold result %v", got.Re()[0], want.Re()[0])
	}
	m := warm.PersistMetrics()
	if !m.Enabled || m.Path != path || m.Load.LoadedEntries != ls.LoadedEntries {
		t.Fatalf("metrics: %+v", m)
	}

	// A tiered signature that was warming up keeps its count across the
	// restart: the placeholder restores with its hits, and the new
	// lifetime tiers it up after the calls the old one had left to make.
	t.Run("hot-placeholder", func(t *testing.T) {
		const threshold, before = DefaultTierThreshold, DefaultTierThreshold - 3
		path := filepath.Join(t.TempDir(), "repo.bin")
		tiered := func(lib *Library) *Engine {
			e := New(Options{Tier: TierJIT, Tiered: true, Library: lib})
			if err := e.Define(persistSrc); err != nil {
				t.Fatal(err)
			}
			return e
		}
		lib := NewLibrary(LibraryOptions{})
		lib.EnablePersistence(path, time.Hour)
		e := tiered(lib)
		for i := 0; i < before; i++ {
			callScalar(t, e, "padd", 41)
		}
		e.Close()
		lib.Close()

		warm := NewLibrary(LibraryOptions{})
		defer warm.Close()
		if ls := warm.EnablePersistence(path, time.Hour); ls.LoadedEntries != 1 {
			t.Fatalf("warm boot: %+v, want the placeholder", ls)
		}
		e = tiered(warm)
		defer e.Close()
		// The parking call counted without a hit: one call more than the
		// old lifetime's remainder.
		for i := 0; i < threshold-before+1; i++ {
			if e.ProfileStats().Promotions != 0 {
				t.Fatalf("promoted after %d calls of the new lifetime", i)
			}
			if got := callScalar(t, e, "padd", 41).MustScalar(); got != 42 {
				t.Fatalf("padd(41) = %g", got)
			}
		}
		if st := warm.Repo().Stats(); e.ProfileStats().Promotions != 1 || st.Misses != 0 || st.Inserts != 0 {
			t.Fatalf("promotions %d, %+v: want one tier-up of the restored placeholder", e.ProfileStats().Promotions, st)
		}
	})
}

// TestPersistenceDropsRedefinedFunction pins the bugfix satellite: a
// function whose source changed between lifetimes must not resurrect
// its old compiled code from the snapshot.
func TestPersistenceDropsRedefinedFunction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.bin")

	lib := NewLibrary(LibraryOptions{})
	lib.EnablePersistence(path, time.Hour)
	compileOnce(t, lib, persistSrc, "padd")
	lib.Close()

	// Tamper with the snapshot the way a source change does: keep the
	// entries but swap in new source for the function. Entries now
	// carry the OLD hash and must be dropped at load.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	newSrc := "function y = padd(x)\ny = x + 100;\n"
	for i := range snap.Funcs {
		if snap.Funcs[i].Name == "padd" {
			snap.Funcs[i].Source = newSrc
			snap.Funcs[i].SrcHash = persist.HashSource(newSrc)
		}
	}
	if err := os.WriteFile(path, persist.Encode(snap), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	ls := warm.EnablePersistence(path, time.Hour)
	if ls.LoadedEntries != 0 || ls.RejectedEntries == 0 {
		t.Fatalf("stale entries survived the load: %+v", ls)
	}
	// The replay must compute with the NEW source, freshly compiled.
	out := compileOnce(t, warm, newSrc, "padd")
	if out.Re()[0] != 141 {
		t.Fatalf("got %v, want 141 (new source must win)", out.Re()[0])
	}
	if st := warm.Repo().Stats(); st.Inserts == 0 {
		t.Fatalf("redefined function was not recompiled: %+v", st)
	}
}

// TestPersistenceLiveDefinitionBeatsSnapshot: when a function is
// already defined (with different source) before the snapshot loads,
// the live definition wins and the snapshot's version is rejected.
func TestPersistenceLiveDefinitionBeatsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.bin")
	lib := NewLibrary(LibraryOptions{})
	lib.EnablePersistence(path, time.Hour)
	compileOnce(t, lib, persistSrc, "padd")
	lib.Close()

	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	// Define padd differently BEFORE enabling persistence.
	compileOnce(t, warm, "function y = padd(x)\ny = x * 2;\n", "padd")
	ls := warm.EnablePersistence(path, time.Hour)
	if ls.LoadedEntries != 0 || ls.RejectedFunctions == 0 {
		t.Fatalf("snapshot overrode a live definition: %+v", ls)
	}
	out := compileOnce(t, warm, "function y = padd(x)\ny = x * 2;\n", "padd")
	if out.Re()[0] != 82 {
		t.Fatalf("got %v, want 82 (live definition must win)", out.Re()[0])
	}
}

// TestPersistenceCorruptSnapshotColdStarts: a damaged snapshot file
// must never crash the boot — the library cold starts and the next
// flush overwrites the damage.
func TestPersistenceCorruptSnapshotColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.bin")
	if err := os.WriteFile(path, []byte("MJRPnot really a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(LibraryOptions{})
	ls := lib.EnablePersistence(path, time.Hour)
	if !ls.Attempted || ls.Error == "" || ls.LoadedEntries != 0 {
		t.Fatalf("corrupt snapshot not rejected: %+v", ls)
	}
	compileOnce(t, lib, persistSrc, "padd")
	lib.Close()

	// The rewritten snapshot is healthy again.
	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	if ls := warm.EnablePersistence(path, time.Hour); ls.Error != "" || ls.LoadedEntries == 0 {
		t.Fatalf("snapshot not repaired by flush: %+v", ls)
	}
}

// TestPersistenceDropsEntryWithMisfitConstants: an entry whose program's
// constant tables do not fit its register banks (bytes from disk or from a
// peer, damaged where the CRC cannot see or never written by this
// compiler) is dropped at load — it would read its literals from spill
// slots, or past the frame — and the function cold-compiles.
func TestPersistenceDropsEntryWithMisfitConstants(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	compileOnce(t, lib, persistSrc, "padd")
	snap := lib.ExportSnapshot()
	lib.Close()
	damaged := 0
	for i := range snap.Funcs {
		for j := range snap.Funcs[i].Entries {
			if p := snap.Funcs[i].Entries[j].Prog; p != nil {
				p.ConstF = append(p.ConstF, make([]float64, p.NumF+1)...)
				damaged++
			}
		}
	}
	if damaged == 0 {
		t.Fatal("no compiled entry in the snapshot")
	}
	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	if ls := warm.LoadSnapshot(snap); ls.LoadedEntries != 0 || ls.RejectedEntries != damaged {
		t.Fatalf("loaded %d, rejected %d of %d damaged entries: %+v", ls.LoadedEntries, ls.RejectedEntries, damaged, ls)
	}
	compileOnce(t, warm, persistSrc, "padd") // serves, by compiling
}

// TestPersistenceInterpEntriesRoundTrip: interpret-only decisions
// (Quality 0, no code) persist too, so a warm start does not re-probe
// functions the compiler already declined.
func TestPersistenceInterpEntriesRoundTrip(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	e := New(Options{Tier: TierJIT, Library: lib})
	defer e.Close()
	if err := e.Define(persistSrc); err != nil {
		t.Fatal(err)
	}
	// Hand-insert an interp-quality entry as the compile path would.
	lib.Repo().Insert("padd", &repo.Entry{Quality: repo.QualityInterp})

	snap := lib.ExportSnapshot()
	warm := NewLibrary(LibraryOptions{})
	defer warm.Close()
	ls := warm.LoadSnapshot(snap)
	if ls.RejectedEntries != 0 || ls.LoadedEntries == 0 {
		t.Fatalf("interp entry rejected: %+v", ls)
	}
}

// TestPersistenceColdStartsOnPreSparsitySnapshot: a snapshot written by
// the pre-sparsity codec (v2) encoded types without the sparsity bit,
// so none of its compiled entries can be trusted under the current
// lattice. The warm start must reject the whole file and cold start —
// and the next flush must overwrite it with a current-version snapshot.
func TestPersistenceColdStartsOnPreSparsitySnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.bin")

	lib := NewLibrary(LibraryOptions{})
	lib.EnablePersistence(path, time.Hour)
	compileOnce(t, lib, persistSrc, "padd")
	lib.Close()

	// Forge the snapshot's version down to 2 (header is not covered by
	// the payload CRC, so only the version gate can reject it).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4], data[5] = 2, 0 // little-endian uint16 version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := NewLibrary(LibraryOptions{})
	ls := warm.EnablePersistence(path, time.Hour)
	if !ls.Attempted || ls.Error == "" || ls.LoadedEntries != 0 {
		t.Fatalf("pre-sparsity snapshot must cold start: %+v", ls)
	}
	// Cold start means the replay compiles again.
	compileOnce(t, warm, persistSrc, "padd")
	if st := warm.Repo().Stats(); st.Inserts == 0 {
		t.Fatalf("cold start should recompile: %+v", st)
	}
	warm.Close()

	// The rewritten snapshot is current-version and warm-starts cleanly.
	again := NewLibrary(LibraryOptions{})
	defer again.Close()
	if ls := again.EnablePersistence(path, time.Hour); ls.Error != "" || ls.LoadedEntries == 0 {
		t.Fatalf("flush after cold start left a bad snapshot: %+v", ls)
	}
}
