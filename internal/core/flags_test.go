package core

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

func TestParseTier(t *testing.T) {
	for _, name := range []string{"interp", "mcc", "falcon", "jit", "spec"} {
		tier, err := ParseTier(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tier.String() != name {
			t.Errorf("%s round-trips as %s", name, tier)
		}
	}
	if _, err := ParseTier("nope"); err == nil {
		t.Error("unknown tier must error")
	}
}

// TestEngineFlags pins the one shared flag set: exactly the seven names
// majic, majicd and majic-bench each used to declare, with the defaults
// they had, parsing to the Options those mains used to assemble by hand.
func TestEngineFlags(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	defer mat.SetSparseThreshold(mat.SparseThresholdValue())

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	options := EngineFlags(fs)

	defaults := map[string]string{
		"async": "false", "workers": "0", "fuse": "false", "threads": "0",
		"tiered": "false", "tier-threshold": "0", "sparse-threshold": "-1",
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if want, ok := defaults[f.Name]; !ok || f.DefValue != want {
			t.Errorf("flag -%s default %q, want %q (known: %v)", f.Name, f.DefValue, want, ok)
		}
	})
	if len(names) != len(defaults) {
		t.Fatalf("registered %v, want exactly the seven engine flags", names)
	}

	threshold := mat.SparseThresholdValue()
	if got := options(); !reflect.DeepEqual(got, Options{}) {
		t.Errorf("no flags set: %+v, want the zero Options", got)
	}
	if mat.SparseThresholdValue() != threshold {
		t.Error("-sparse-threshold=-1 must leave the process default alone")
	}

	err := fs.Parse([]string{"-async", "-workers=3", "-fuse", "-threads=2", "-tiered", "-tier-threshold=5", "-sparse-threshold=0.25"})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{AsyncCompile: true, CompileWorkers: 3, FuseElemwise: true, Threads: 2, Tiered: true, TierThreshold: 5}
	if got := options(); !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if parallel.DefaultThreads() != 2 || mat.SparseThresholdValue() != 0.25 {
		t.Errorf("process-wide settings not applied: threads %d, sparse threshold %g",
			parallel.DefaultThreads(), mat.SparseThresholdValue())
	}
}
