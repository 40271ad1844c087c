package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/persist"
)

// bootPersist starts a shared-repository server persisting to path.
func bootPersist(t *testing.T, path string) (*Server, *testClient) {
	t.Helper()
	return startServer(t, Options{
		Engine:   core.Options{Tier: core.TierJIT},
		RepoPath: path,
	})
}

// replayFig4 evals every fig4 benchmark in one session — define, bind
// args through the workspace API, call — and returns the final
// metrics.
func replayFig4(t *testing.T, tc *testClient) MetricsSnapshot {
	t.Helper()
	id := tc.createSession()
	for _, b := range bench.All() {
		if code, _, bad := tc.eval(id, b.Source(bench.Small)); code != 200 {
			t.Fatalf("%s: define: %d %s", b.Fn, code, bad.Error)
		}
		args := b.Args(bench.Small)
		call := "y = " + b.Fn
		if len(args) > 0 {
			call += "("
		}
		for i, a := range args {
			wv := workspaceValue{
				Name: fmt.Sprintf("arg%d", i+1),
				Rows: a.Rows(), Cols: a.Cols(), Kind: a.Kind().String(),
			}
			if a.Kind() == mat.Char {
				wv.Text = a.Text()
			} else {
				wv.Re = a.Re()
				wv.Im = a.Im()
			}
			path := fmt.Sprintf("/sessions/%s/workspace/arg%d", id, i+1)
			if code, body := tc.do("PUT", path, wv); code != 204 {
				t.Fatalf("%s: bind arg%d: %d %s", b.Fn, i+1, code, body)
			}
			if i > 0 {
				call += ", "
			}
			call += fmt.Sprintf("arg%d", i+1)
		}
		if len(args) > 0 {
			call += ")"
		}
		if code, _, bad := tc.eval(id, call+";"); code != 200 {
			t.Fatalf("%s: call: %d %s", b.Fn, code, bad.Error)
		}
	}
	return tc.metrics()
}

// TestServerWarmRestartZeroCompiles is the in-process twin of the CI
// warm-start-smoke job: boot a daemon with -repo-path, replay fig4,
// drain (the SIGTERM path), boot a second daemon on the same file, and
// replay again — the restarted daemon must answer every call from the
// snapshot with zero JIT compiles and zero misses.
func TestServerWarmRestartZeroCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full fig4 suite")
	}
	path := filepath.Join(t.TempDir(), "repo.bin")

	srv, tc := bootPersist(t, path)
	cold := replayFig4(t, tc)
	if cold.Repo.Inserts == 0 {
		t.Fatalf("cold run compiled nothing: %+v", cold.Repo)
	}
	if !cold.Persist.Enabled || cold.Persist.Path != path {
		t.Fatalf("persistence not surfaced in metrics: %+v", cold.Persist)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("drain did not flush the snapshot: %v", err)
	}

	srv2, tc2 := bootPersist(t, path)
	boot := tc2.metrics()
	if boot.Persist.Load.Error != "" || boot.Persist.Load.LoadedEntries == 0 {
		t.Fatalf("warm boot: %+v", boot.Persist.Load)
	}
	warm := replayFig4(t, tc2)
	if warm.Repo.Inserts != 0 {
		t.Fatalf("warm replay performed %d compiles (want 0): %+v", warm.Repo.Inserts, warm.Repo)
	}
	if warm.Repo.Misses != 0 {
		t.Fatalf("warm replay missed %d times (want 0): %+v", warm.Repo.Misses, warm.Repo)
	}
	if warm.Repo.Loaded == 0 || warm.Repo.Hits == 0 {
		t.Fatalf("warm replay did not use the snapshot: %+v", warm.Repo)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServerCorruptSnapshotBootsCold: a snapshot the daemon cannot use
// must not prevent boot — truncated garbage, or a well-formed snapshot of
// the previous format version (v5: code whose literals are instructions
// the IR no longer has, and no constant tables). The daemon reports the
// load error, starts cold, serves, and heals the file on drain.
func TestServerCorruptSnapshotBootsCold(t *testing.T) {
	v5 := persist.Encode(&persist.Snapshot{Funcs: []persist.FuncState{{
		Name: "g", Source: "function y = g(x)\ny = x;\n", SrcHash: persist.HashSource("function y = g(x)\ny = x;\n"),
	}}})
	binary.LittleEndian.PutUint16(v5[4:6], 5)
	for name, snapshot := range map[string][]byte{
		"corrupt":          []byte("MJRP\x01\x00garbage"),
		"previous version": v5,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "repo.bin")
			if err := os.WriteFile(path, snapshot, 0o644); err != nil {
				t.Fatal(err)
			}

			srv, tc := bootPersist(t, path)
			m := tc.metrics()
			if m.Persist.Load.Error == "" || m.Persist.Load.LoadedEntries != 0 {
				t.Fatalf("unusable snapshot not reported: %+v", m.Persist.Load)
			}
			id := tc.createSession()
			for _, src := range []string{"function y = g(x)\ny = x + 1;\n", "y = g(1) + 1;"} {
				if code, _, bad := tc.eval(id, src); code != 200 {
					t.Fatalf("eval on cold-started daemon: %d %s", code, bad.Error)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := persist.Decode(healed); err != nil {
				t.Fatalf("the drain did not leave a loadable snapshot: %v", err)
			}
		})
	}
}
