package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/regalloc"
)

// bytesPerRun is what one call of f allocates, averaged over runs after
// a warm-up call, with the collector off so that nothing empties a pool
// in between, and on one P: a sync.Pool keeps what is put back with the
// P that put it, so a goroutine that moved between a Put and the next Get
// would miss and allocate a whole scratch (a loaded box read regalloc's
// long body at 75 bytes an instruction instead of 63).
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmCompileScratchIsReused: a warm compile takes its working
// memory from pools, so what a phase allocates is what it returns — the
// AST, the annotations, the rewritten stream — not its scratch. Each
// family's larger program holds parsing and inference to a byte budget
// per AST node and register allocation to one per instruction. Before
// the pools, inference allocated an environment per block per variable
// and the parser a token slice grown by doubling, both more than the
// budget on the larger programs.
func TestWarmCompileScratchIsReused(t *testing.T) {
	// Budgets in bytes. With the pools the three families measure at most
	// 76 per node parsing, 135 per node inferring and 63 per instruction
	// allocating registers (the one stream a program keeps; a stream per
	// bank read 114 on long body); without them, at least 305, 195 and
	// 231, and inference 1 718 on sibling loops.
	const parseBudget, inferBudget, regallocBudget = 128, 256, 64
	for _, fam := range []struct {
		name string
		src  string
	}{
		{"sibling loops", siblingLoops(80)},
		{"nested loops", nestedLoops(16)},
		{"long body", longBody(300)},
	} {
		s := stagesOf(t, fam.src)
		parse := bytesPerRun(20, func() { parser.Parse(fam.src) }) / float64(s.nodes)
		inf := bytesPerRun(20, func() { infer.Forward(s.g, s.params, infer.Opts{}) }) / float64(s.nodes)
		progs := make([]*ir.Prog, 21)
		for i := range progs {
			progs[i] = s.fresh()
		}
		next := 0
		alloc := bytesPerRun(20, func() { regalloc.Allocate(progs[next], regalloc.DefaultOptions()); next++ }) / float64(len(s.prog.Ins))
		t.Logf("%-14s parse %6.0f B/node, infer %6.0f B/node, regalloc %6.0f B/instr (%d nodes, %d instructions)",
			fam.name, parse, inf, alloc, s.nodes, len(s.prog.Ins))
		if parse > parseBudget {
			t.Errorf("%s: a warm parser.Parse allocates %.0f bytes per AST node, budget %d", fam.name, parse, parseBudget)
		}
		if inf > inferBudget {
			t.Errorf("%s: a warm infer.Forward allocates %.0f bytes per AST node, budget %d", fam.name, inf, inferBudget)
		}
		if alloc > regallocBudget {
			t.Errorf("%s: a warm regalloc.Allocate allocates %.0f bytes per instruction, budget %d", fam.name, alloc, regallocBudget)
		}
	}
}
