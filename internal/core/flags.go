package core

import (
	"flag"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// EngineFlags registers on fs the engine flags every binary shares —
// -async -workers -fuse -threads -tiered -tier-threshold
// -sparse-threshold — and returns the function to call once fs is
// parsed: it applies the two process-wide settings among them (kernel
// threads, sparse densify threshold) and returns the Options the flags
// describe. The flags that differ between binaries (-tier, -seed,
// -trace, ...) stay with the binary that has them; it fills those fields
// on the returned Options itself.
func EngineFlags(fs *flag.FlagSet) func() Options {
	var o Options
	fs.BoolVar(&o.AsyncCompile, "async", false, "compile in the background on a worker pool (asynchronous repository): jit/mcc/falcon misses wait for their job, spec misses never block")
	fs.IntVar(&o.CompileWorkers, "workers", 0, "async compile workers (0 = GOMAXPROCS; nothing unless -async)")
	fs.BoolVar(&o.FuseElemwise, "fuse", false, "fuse elementwise operator trees into single kernels")
	fs.IntVar(&o.Threads, "threads", 0, "dense-kernel worker threads (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
	fs.BoolVar(&o.Tiered, "tiered", false, "profile-guided tiered recompilation: interpret first, promote hot signatures to optimized code in the background, OSR hot loops mid-run (jit tier only)")
	fs.IntVar(&o.TierThreshold, "tier-threshold", 0, "calls before a hot signature is promoted (0 = default)")
	sparse := fs.Float64("sparse-threshold", -1, "density above which sparse operator results densify (0..1, -1 = default 0.5)")
	return func() Options {
		if *sparse >= 0 {
			mat.SetSparseThreshold(*sparse)
		}
		if o.Threads > 0 {
			parallel.SetDefaultThreads(o.Threads)
		}
		return o
	}
}
