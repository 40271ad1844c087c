package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one metric of the ledger. The two tables below are
// the single declaration of every name the benchmark emits:
// BENCHMARK.json is `go run ./benchmark -manifest`, and the smoke test
// fails when the committed file and these tables disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median the metric may worsen
	// by. Every end-to-end metric has one, and the driver applies it. A
	// per-layer metric may carry one too; BENCHMARK.json has no place
	// for it, so only -compare and -calibrate apply it.
	Bound float64
}

// timed reports whether the metric is read off a clock. Counts and
// sizes stay exact on a throttled box; timings do not.
func (d metricDef) timed() bool {
	switch d.Unit {
	case "count", "KiB", "MiB", "ratio":
		return false
	}
	return true
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them (the driver's contract), so each has one definition that
// holds on all four workloads; README.md maps them onto the issue's
// per-workload names (call_ms, first_result_ms, eval_ms).
var endToEnd = []metricDef{
	{"op_vs_ref", "x", "lower", 0.15},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"mallocs_per_op", "count", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"setup_mallocs", "count", "lower", 0.10},
}

// perLayer is one row per number a single layer owns. Name is
// <layer>.<metric> with layer = package under internal/. A metric whose
// layer the workload does not cross reads 0 there.
var perLayer = []metricDef{
	{"parser.parse_us", "us", "lower", 0},
	{"parser.tokens", "count", "lower", 0},
	{"parser.tokens_per_s", "1/s", "higher", 0},
	{"disambig.ms", "ms", "lower", 0},
	{"disambig.share", "%", "lower", 0},
	{"infer.ms", "ms", "lower", 0},
	{"infer.share", "%", "lower", 0},
	{"infer.speculate_ms", "ms", "lower", 0},
	{"codegen.ms", "ms", "lower", 0},
	{"codegen.share", "%", "lower", 0},
	{"codegen.ir_instrs", "count", "lower", 0},
	{"codegen.fused_kernels", "count", "higher", 0},
	{"codegen.gemv_selected", "count", "higher", 0},
	{"codegen.spill_slots", "count", "lower", 0},
	{"repo.lookup_ns", "ns", "lower", 0},
	{"repo.insert_ns", "ns", "lower", 0},
	{"repo.invalidate_ns", "ns", "lower", 0},
	{"repo.lookups_per_op", "count", "lower", 0},
	{"repo.hit_ratio", "ratio", "higher", 0},
	{"repo.inserts_per_op", "count", "lower", 0},
	{"repo.invalidations_per_op", "count", "lower", 0},
	{"compilequeue.do_ns", "ns", "lower", 0},
	{"compilequeue.wait_ms", "ms", "lower", 0},
	{"compilequeue.submitted_per_op", "count", "lower", 0},
	{"compilequeue.deduped", "count", "higher", 0},
	{"compilequeue.errors", "count", "lower", 0},
	{"profile.promotions", "count", "higher", 0},
	{"profile.osr_transfers", "count", "higher", 0},
	{"profile.osr_deopts", "count", "lower", 0},
	{"core.call_overhead_ns", "ns", "lower", 0},
	{"core.recursive_call_ms", "ms", "lower", 0},
	{"core.op_wall_ms", "ms", "lower", 0},
	{"core.ops_per_s", "1/s", "higher", 0},
	{"core.first_result_ms.jit", "ms", "lower", 0},
	{"core.first_result_ms.prod", "ms", "lower", 0},
	{"core.redefine_result_ms", "ms", "lower", 0},
	{"core.unattributed_pct", "%", "lower", 0},
	{"interp.call_ms", "ms", "lower", 0},
	{"interp.script_ms", "ms", "lower", 0},
	{"interp.speedup_vs_interp", "x", "higher", 0.05},
	{"vm.exec_ms", "ms", "lower", 0},
	{"vm.exec_share", "%", "higher", 0},
	{"vm.jit_call_ms", "ms", "lower", 0},
	{"vm.spec_call_ms", "ms", "lower", 0},
	{"vm.prod_call_ms", "ms", "lower", 0},
	{"blas.dgemv_us_420", "us", "lower", 0},
	{"blas.dgemm_ms_256", "ms", "lower", 0},
	{"blas.dgemm_gflops_256", "GFLOP/s", "higher", 0},
	{"blas.ddot_us_420", "us", "lower", 0},
	{"blas.daxpy_us_420", "us", "lower", 0},
	{"sparse.spmv_us_1e4", "us", "lower", 0},
	{"sparse.spmv_gbs", "GB/s", "higher", 0},
	{"parallel.for_overhead_ns", "ns", "lower", 0},
	{"parallel.workers", "count", "lower", 0},
	{"parallel.threads", "count", "higher", 0},
	{"mat.new_vec_ns", "ns", "lower", 0},
	{"mat.new_mat_ns", "ns", "lower", 0},
	{"mat.pool_hit_ratio", "ratio", "higher", 0},
	{"mat.pool_gets_per_op", "count", "lower", 0},
	{"mat.recycles_per_op", "count", "higher", 0},
	{"persist.encode_ms", "ms", "lower", 0},
	{"persist.decode_ms", "ms", "lower", 0},
	{"persist.snapshot_kb", "KiB", "lower", 0},
	{"persist.loaded_entries", "count", "higher", 0},
	{"server.eval_route_ms_p50", "ms", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.eval_ms_p99", "ms", "lower", 0},
	{"server.run_evals_per_s", "1/s", "higher", 0},
	{"server.evals_per_s", "1/s", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.timeouts", "count", "lower", 0},
	{"server.sessions_created", "count", "lower", 0},
	{"server.call_ms_p50", "ms", "lower", 0},
	{"server.script_ms_p50", "ms", "lower", 0},
	{"server.ws_ms_p50", "ms", "lower", 0},
	{"server.churn_ms_p50", "ms", "lower", 0},
	{"cluster.ring_lookup_ns", "ns", "lower", 0},
	{"cluster.gateway_hop_ms", "ms", "lower", 0},
	{"cluster.fleet_compiles", "count", "lower", 0},
	{"cluster.replicated_entries", "count", "higher", 0},
	{"telemetry.trace_overhead_pct", "%", "lower", 0},
	{"env.steal_pct", "%", "lower", 0},
	{"env.gomaxprocs", "count", "higher", 0},
	{"env.peak_rss_mb", "MiB", "lower", 0},
}

// workloadDefs names the four workloads and why each exists.
var workloadDefs = []struct{ Name, Why string }{
	{"steady-scalar", "warm calls of the 12 loop/recursion-bound Table 1 programs under jit and spec: vm, codegen quality and repository lookups do the work, kernels none"},
	{"steady-kernel", "warm calls of cgopt/qmr/sor/mei plus matmul, elemchain and spcg, interp beside jit/spec/prod: blas, sparse, parallel, mat pool and fusion do the work"},
	{"cold-session", "fresh engine, define, first call, redefine, call for all 16 Table 1 programs at small: parser, inference, codegen, compile queue and repository writes do the work"},
	{"serve-mixed", "closed-loop clients against a warm-booted in-process majicd over loopback with a seeded call/script/workspace/churn mix: server, JSON, session table and shared repository under contention"},
}

// runSeconds is how long one run measures. With five set-ups, or the
// traced run's second set-up and probes, a run takes 25-35 s depending
// on how hard the box is throttled, so the driver's 4 + 22 x 4 runs fit
// its time cap.
const runSeconds = 20

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("manifest: %v", err)) // static tables; cannot fail
	}
	return append(out, '\n')
}

// pick builds the emitted metric map for defs from vals, supplying the
// declared unit. A missing value is a bug in the benchmark, reported by
// the caller.
func pick(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
