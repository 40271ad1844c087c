package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/compilequeue"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/ir"
	"repro/internal/lexer"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/persist"
	"repro/internal/regalloc"
	"repro/internal/repo"
	"repro/internal/sparse"
	"repro/internal/types"
)

// probeLayers measures each layer from outside, by timing calls into
// its public functions at the shapes the workloads use. The probes are
// the same on every workload, so a layer's number can be read beside
// any workload's trace.
func probeLayers(c config, vals map[string]float64) error {
	p := prober{quick: c.quick, vals: vals}
	for _, probe := range []func() error{
		p.parser, p.pipeline, p.speculate, p.repository, p.queue, p.core,
		p.blas, p.sparse, p.parallel, p.mat, p.persist,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return probeFleet(c, vals)
}

type prober struct {
	quick bool
	vals  map[string]float64
}

// scale trims a probe's repetition count for the smoke test.
func (p prober) scale(n int) int {
	if p.quick {
		return n/20 + 1
	}
	return n
}

func (p prober) table1() ([]program, bench.Size, error) {
	names := table1Names()
	sz := bench.Medium
	if p.quick {
		names, sz = []string{"adapt", "cgopt", "fibonacci", "sor"}, bench.Small
	}
	progs, err := lookupPrograms(names)
	return progs, sz, err
}

// parser: tokens and parse time over the Table 1 sources.
func (p prober) parser() error {
	progs, sz, err := p.table1()
	if err != nil {
		return err
	}
	var srcs []string
	tokens := 0
	for _, pr := range progs {
		src := pr.source(sz)
		toks, err := lexer.Tokenize(src)
		if err != nil {
			return fmt.Errorf("tokenize %s: %w", pr.name, err)
		}
		tokens += len(toks)
		srcs = append(srcs, src)
	}
	var perr error
	ns := minPerOp(p.scale(20), 1, func() {
		for _, src := range srcs {
			if _, err := parser.Parse(src); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return perr
	}
	p.vals["parser.parse_us"] = ns / 1e3
	p.vals["parser.tokens"] = float64(tokens)
	p.vals["parser.tokens_per_s"] = float64(tokens) / (ns / 1e9)
	return nil
}

// fileResolver resolves user functions within one parsed file, the way
// an engine's library would after Define.
type fileResolver map[string]*ast.Function

func (r fileResolver) LookupFunction(name string) *ast.Function { return r[name] }

// pipeline runs the compiler's passes on every program with the
// signature of its real arguments and counts what comes out: IR size,
// fused kernels, dgemv selections, spill slots. The compiler is
// deterministic, so these repeat exactly; a change in them is a change
// in generated code, visible before any timing.
func (p prober) pipeline() error {
	progs, sz, err := p.table1()
	if err != nil {
		return err
	}
	extra, err := lookupPrograms([]string{"matmul", "elemchain", "spcg"})
	if err != nil {
		return err
	}
	var instrs, fused, gemv, spills int
	for _, pr := range append(progs, extra...) {
		file, err := parser.Parse(pr.source(sz))
		if err != nil {
			return fmt.Errorf("parse %s: %w", pr.name, err)
		}
		res := make(fileResolver)
		for _, fn := range file.Funcs {
			res[fn.Name] = fn
		}
		fn := res[pr.fn]
		if fn == nil {
			return fmt.Errorf("%s: entry function %s not in its source", pr.name, pr.fn)
		}
		work := inline.Expand(fn, res)
		g := cfg.Build(work.Body)
		tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(n string) bool { return res[n] != nil }))
		sig := types.SignatureOf(pr.args(sz))
		params := make(map[string]types.Type, len(work.Ins))
		for i, name := range work.Ins {
			params[name] = sig[i]
		}
		ccfg := codegen.DefaultConfig()
		ccfg.FuseElemwise = true
		prog, err := codegen.Compile(work, infer.Forward(g, params, infer.Opts{}), tbl, ccfg)
		if err != nil {
			// A program the compiler defers to the interpreter has no
			// IR to count; that it is deferred shows in the workloads.
			continue
		}
		opt.FuseDst(prog)
		regalloc.Allocate(prog, regalloc.DefaultOptions())
		instrs += len(prog.Ins)
		for _, in := range prog.Ins {
			switch in.Op {
			case ir.OpVFused:
				fused++
			case ir.OpGEMV:
				gemv++
			}
		}
		spills += int(prog.SlotsF + prog.SlotsI + prog.SlotsC + prog.SlotsV)
	}
	p.vals["codegen.ir_instrs"] = float64(instrs)
	p.vals["codegen.fused_kernels"] = float64(fused)
	p.vals["codegen.gemv_selected"] = float64(gemv)
	p.vals["codegen.spill_slots"] = float64(spills)
	return nil
}

// speculate times Engine.Precompile over the Table 1 sources: the
// speculator plus the optimizing backend, which steady set-up pays.
func (p prober) speculate() error {
	progs, sz, err := p.table1()
	if err != nil {
		return err
	}
	e := core.New(armSpec.options(nil))
	defer e.Close()
	for _, pr := range progs {
		if err := e.Define(pr.source(sz)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	e.Precompile()
	p.vals["infer.speculate_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

// repository times Lookup, Insert and Invalidate on a 16-function
// repository: the read path the steady workloads lean on and the write
// path cold-session does.
func (p prober) repository() error {
	const nfuncs = 16
	sig := types.SignatureOf([]*mat.Value{mat.Scalar(1), mat.New(4, 4)})
	names := make([]string, nfuncs)
	r := repo.New()
	for i := range names {
		names[i] = "f" + strconv.Itoa(i)
		r.Insert(names[i], &repo.Entry{Sig: sig, Quality: repo.QualityInterp})
	}
	i := 0
	missed := false
	p.vals["repo.lookup_ns"] = minPerOp(5, p.scale(200000), func() {
		if r.Lookup(names[i%nfuncs], sig) == nil {
			missed = true
		}
		i++
	})
	if missed {
		return fmt.Errorf("repository probe: a lookup of an inserted signature missed")
	}
	w := repo.New()
	p.vals["repo.insert_ns"] = minPerOp(5, p.scale(20000), func() {
		// Invalidate keeps the per-function entry list at length one.
		w.Invalidate(names[i%nfuncs])
		w.Insert(names[i%nfuncs], &repo.Entry{Sig: sig, Quality: repo.QualityInterp})
		i++
	})
	p.vals["repo.invalidate_ns"] = minPerOp(5, p.scale(20000), func() {
		w.Invalidate(names[i%nfuncs])
		i++
	})
	// insert_ns timed an invalidate with each insert; take it out.
	p.vals["repo.insert_ns"] -= p.vals["repo.invalidate_ns"]
	return nil
}

// queue times one no-op job through the compile pool: submit, run on a
// worker, wake the waiter.
func (p prober) queue() error {
	pool := compilequeue.New(2)
	defer pool.Close()
	i := 0
	var jerr error
	p.vals["compilequeue.do_ns"] = minPerOp(5, p.scale(20000), func() {
		t, _ := pool.Do("probe"+strconv.Itoa(i), func() error { return nil })
		if err := t.Wait(); err != nil {
			jerr = err
		}
		i++
	})
	return jerr
}

// core times the call boundary: a warm call of the identity function
// (everything but the work) and of fibonacci (the boundary thousands of
// times over, through the repository).
func (p prober) core() error {
	e := core.New(armJIT.options(nil))
	defer e.Close()
	if err := e.Define("function y = id(x)\n  y = x;\nend\n"); err != nil {
		return err
	}
	arg := []*mat.Value{mat.Scalar(3)}
	var cerr error
	call := func() {
		if _, err := e.Call("id", arg, 1); err != nil {
			cerr = err
		}
	}
	call()
	p.vals["core.call_overhead_ns"] = minPerOp(5, p.scale(20000), call)

	fib, err := lookupProgram("fibonacci")
	if err != nil {
		return err
	}
	if err := e.Define(fib.source(bench.Small)); err != nil {
		return err
	}
	fargs := fib.args(bench.Small)
	fcall := func() {
		if _, err := e.Call(fib.fn, fargs, 1); err != nil {
			cerr = err
		}
	}
	fcall()
	p.vals["core.recursive_call_ms"] = minPerOp(p.scale(40), 1, fcall) / 1e6
	return cerr
}

// blas times the dense kernels at the shapes the kernel workload uses
// (cgopt's system is 420 x 420, matmul's operands 256 x 256).
func (p prober) blas() error {
	const n, m = 420, 256
	a := waveMatrix(n, n, 1).Re()
	x := waveMatrix(n, 1, 2).Re()
	y := make([]float64, n)
	p.vals["blas.dgemv_us_420"] = minPerOp(5, p.scale(200), func() {
		blas.Dgemv(false, n, n, 1, a, n, x, 0, y)
	}) / 1e3
	sink := 0.0
	p.vals["blas.ddot_us_420"] = minPerOp(5, p.scale(20000), func() { sink += blas.Ddot(n, x, 1, y, 1) }) / 1e3
	p.vals["blas.daxpy_us_420"] = minPerOp(5, p.scale(20000), func() { blas.Daxpy(n, 1e-9, x, 1, y, 1) }) / 1e3
	A := waveMatrix(m, m, 3).Re()
	B := waveMatrix(m, m, 4).Re()
	C := make([]float64, m*m)
	ns := minPerOp(p.scale(20), 1, func() { blas.Dgemm(m, m, m, 1, A, m, B, m, 0, C, m) })
	p.vals["blas.dgemm_ms_256"] = ns / 1e6
	p.vals["blas.dgemm_gflops_256"] = 2 * float64(m) * float64(m) * float64(m) / ns // flop/ns = GFLOP/s
	if sink != sink {
		return fmt.Errorf("blas probe: ddot produced NaN")
	}
	return nil
}

// sparse times SpMV on spcg's operator; bytes moved are computed from
// the sizes (values, column indices, row pointers, x read, y written).
func (p prober) sparse() error {
	const n = 10000
	rows, _, rowPtr, colIdx, val := mat.SparseCSR(pentaOperator(n))
	x := waveMatrix(n, 1, 5).Re()
	y := make([]float64, n)
	ns := minPerOp(5, p.scale(200), func() { sparse.SpMV(rows, rowPtr, colIdx, val, 1, x, 0, y) })
	bytes := float64(8 * (2*len(val) + len(rowPtr) + 2*n))
	p.vals["sparse.spmv_us_1e4"] = ns / 1e3
	p.vals["sparse.spmv_gbs"] = bytes / ns // bytes/ns = GB/s
	return nil
}

// parallel times one fork-join with nothing to do: what a kernel pays
// to go wide before any speed-up.
func (p prober) parallel() error {
	threads := parallel.DefaultThreads()
	p.vals["parallel.for_overhead_ns"] = minPerOp(5, p.scale(20000), func() {
		parallel.For(threads, threads, 1, func(lo, hi int) {})
	})
	p.vals["parallel.workers"] = float64(parallel.Workers())
	p.vals["parallel.threads"] = float64(threads)
	return nil
}

// mat times allocating a result vector and a result matrix at cgopt's
// size: the allocation every library call that returns a value makes.
func (p prober) mat() error {
	var keep *mat.Value
	p.vals["mat.new_vec_ns"] = minPerOp(5, p.scale(20000), func() { keep = mat.New(420, 1) })
	p.vals["mat.new_mat_ns"] = minPerOp(5, p.scale(200), func() { keep = mat.New(420, 420) })
	if keep.Rows() != 420 {
		return fmt.Errorf("mat probe: wrong shape")
	}
	return nil
}

// persist times the snapshot codec on a library holding every Table 1
// program compiled at small: what a warm boot decodes.
func (p prober) persist() error {
	progs, _, err := p.table1()
	if err != nil {
		return err
	}
	e := core.New(armJIT.options(nil))
	defer e.Close()
	for _, pr := range progs {
		if err := e.Define(pr.source(bench.Small)); err != nil {
			return err
		}
		if _, err := e.Call(pr.fn, pr.args(bench.Small), 1); err != nil {
			return fmt.Errorf("persist probe: %s: %w", pr.name, err)
		}
	}
	var data []byte
	p.vals["persist.encode_ms"] = minPerOp(p.scale(20), 1, func() {
		data = persist.Encode(e.Library().ExportSnapshot())
	}) / 1e6
	var derr error
	p.vals["persist.decode_ms"] = minPerOp(p.scale(20), 1, func() {
		if _, err := persist.Decode(data); err != nil {
			derr = err
		}
	}) / 1e6
	p.vals["persist.snapshot_kb"] = float64(len(data)) / 1024
	return derr
}

// --- fleet -------------------------------------------------------------------

// fleetRounds x opsPerRound = 400 is the fixed slice of seeded requests
// the gateway probe sends: once straight at a daemon, once through a
// gateway in front of two nodes. The difference is the gateway hop.
const fleetRounds = 10

// probeFleet gives the majic-gate / replication hop its baseline. When
// the workload is not serve-mixed the direct side also fills the server
// rows, from a daemon booted the way serve-mixed boots its own.
func probeFleet(c config, vals map[string]float64) error {
	rounds := fleetRounds
	if c.quick {
		rounds = 1
	}
	nodes := []cluster.Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	ring, err := cluster.NewRing(cluster.DefaultVnodes, nodes)
	if err != nil {
		return err
	}
	i := 0
	vals["cluster.ring_lookup_ns"] = minPerOp(5, prober{quick: c.quick}.scale(20000), func() {
		ring.Lookup("session-" + strconv.Itoa(i&1023))
		i++
	})

	// Direct: one warm-booted daemon, one client.
	sv := newServe(c)
	sv.nclient = 1
	if err := sv.setUp(nil); err != nil {
		return fmt.Errorf("fleet probe daemon: %w", err)
	}
	direct := runMix(sv.clients, &limit{start: time.Now(), rounds: rounds}, rand.New(rand.NewSource(c.seed)), nil)
	snapshot := sv.d.srv.Metrics()
	refs := sv.refs
	sv.tearDown()
	if _, ok := vals["server.eval_route_ms_p50"]; !ok { // serve-mixed filled the server rows from its own daemon
		serverMetrics(vals, snapshot, direct)
		vals["persist.loaded_entries"] = float64(sv.loaded)
	}

	// Fleet: two replicating nodes behind a gateway, same requests.
	fleet, err := startFleet(2)
	if err != nil {
		return err
	}
	defer fleet.stop()
	clients, err := newMixClients(fleet.front.base, 1, refs)
	if err != nil {
		return fmt.Errorf("fleet probe sessions: %w", err)
	}
	via := runMix(clients, &limit{start: time.Now(), rounds: rounds}, rand.New(rand.NewSource(c.seed)), nil)
	for _, mc := range clients {
		mc.close()
	}
	fm := fleet.gateway.Metrics()
	if direct.failed+via.failed > 0 {
		return fmt.Errorf("fleet probe: %d direct and %d gateway requests failed (%s%s)", direct.failed, via.failed, direct.firstErr, via.firstErr)
	}
	vals["cluster.gateway_hop_ms"] = via.rowGeomean(0.5, inGroup("call")) - direct.rowGeomean(0.5, inGroup("call"))
	vals["cluster.fleet_compiles"] = float64(fm.Fleet.RepoInserts)
	vals["cluster.replicated_entries"] = float64(fm.Fleet.Replicated)
	return nil
}

// fleetProbe is two in-process nodes, their replicators and a gateway.
type fleetProbe struct {
	nodes   []*daemon
	repls   []*cluster.Replicator
	gateway *cluster.Gateway
	front   *listener
}

func startFleet(n int) (*fleetProbe, error) {
	f := &fleetProbe{}
	var nodes []cluster.Node
	for i := 0; i < n; i++ {
		id := "node-" + string(rune('a'+i))
		d, err := startDaemon(prodServer("", id))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, d)
		nodes = append(nodes, cluster.Node{ID: id, Addr: d.base})
	}
	for i, d := range f.nodes {
		var peers []cluster.Node
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other)
			}
		}
		r := cluster.NewReplicator(cluster.ReplicatorOptions{
			NodeID: nodes[i].ID, Lib: d.srv.Library(), Peers: peers, Interval: 500 * time.Millisecond,
		})
		r.Start()
		f.repls = append(f.repls, r)
	}
	ring, err := cluster.NewRing(cluster.DefaultVnodes, nodes)
	if err != nil {
		f.stop()
		return nil, err
	}
	// The health table is not started: in-process nodes stay ready, and
	// an unstarted table has no goroutine to stop.
	f.gateway = cluster.NewGateway(cluster.GatewayOptions{Ring: ring, Health: cluster.NewHealth(nodes, 0, nil)})
	f.front, err = listen(f.gateway.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleetProbe) stop() {
	if f.front != nil {
		f.front.stop()
	}
	for _, r := range f.repls {
		r.Close()
	}
	for _, d := range f.nodes {
		d.stop() // probe teardown: the numbers are already taken
	}
}
