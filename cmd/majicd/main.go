// Command majicd is the multi-session evaluation daemon: an HTTP/JSON
// server hosting many concurrent MATLAB sessions that share one
// process-wide code repository and compile queue, so one session's JIT
// compile warms every other session's locator.
//
//	majicd -addr :8757 -async -workers 4
//
// Protocol (JSON bodies throughout):
//
//	POST   /sessions                        → 201 {"id":"s1"}
//	POST   /sessions/{id}/eval              {"src":"y = qmr(A,b);","deadline_ms":500}
//	                                        → 200 {"output":"...","elapsed_us":123}
//	                                        | 408 deadline kill | 422 program error
//	GET    /sessions/{id}/workspace/{name}  → 200 {"rows":..,"cols":..,"re":[..]}
//	PUT    /sessions/{id}/workspace/{name}  ← the same shape → 204
//	DELETE /sessions/{id}                   → 204
//	GET    /metrics                         → repository/queue/latency counters (JSON)
//	GET    /metrics.prom                    → the same counters, Prometheus text exposition
//	GET    /debug/trace                     → Chrome trace-event JSON (per-eval spans)
//	GET    /debug/events                    → tiering event journal (promotions, deopts by cause)
//	GET    /healthz (liveness), /readyz (readiness; 503 while draining), /debug/pprof/*
//	POST   /cluster/ingest                  ← a peer's replication record (binary)
//	GET    /cluster/digest                  → per-function anti-entropy digest
//
// Clustering: -node-id a -peers b=http://...,c=http://... replicates
// newly compiled repository entries to the named peers (see
// internal/cluster and cmd/majic-gate for the session router).
//
// SIGINT/SIGTERM mark the node not-ready, drain in-flight evaluations,
// close every session and the shared compile queue, then exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8757", "listen address")
	tier := flag.String("tier", "jit", "execution tier for session engines: interp|mcc|falcon|jit|spec")
	engineOptions := core.EngineFlags(flag.CommandLine)
	repoMax := flag.Int("repo-max", 0, "max compiled entries per function in the shared repository (0 = unbounded)")
	repoPath := flag.String("repo-path", "", "persist the shared repository to this file: warm-start on boot, write-behind snapshots, flush on drain")
	maxSessions := flag.Int("max-sessions", 256, "session table cap")
	maxEvals := flag.Int("max-evals", 0, "max concurrently executing evals (0 = 2x GOMAXPROCS)")
	idleTTL := flag.Duration("idle-ttl", 15*time.Minute, "evict sessions idle longer than this")
	deadline := flag.Duration("deadline", 60*time.Second, "default and maximum per-eval deadline")
	isolated := flag.Bool("isolated", false, "give every session a private repository (no sharing)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug|info|warn|error (JSON lines on stderr; debug adds per-request and per-eval records)")
	nodeID := flag.String("node-id", "", "cluster node name (required with -peers; stamped on /readyz and replicated entries)")
	peers := flag.String("peers", "", "comma-separated peers (id=http://host:port,...) to replicate compiled entries to; may include this node, which is skipped")
	advertise := flag.String("advertise", "", "this node's own base URL, filtered out of -peers (in addition to its -node-id entry)")
	antiEntropy := flag.Duration("anti-entropy", 0, "peer digest reconciliation period (0 = default 5s)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "majicd: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	t, err := core.ParseTier(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *repoPath != "" && *isolated {
		fmt.Fprintln(os.Stderr, "majicd: -repo-path requires the shared repository (drop -isolated)")
		os.Exit(2)
	}
	if *peers != "" && *isolated {
		fmt.Fprintln(os.Stderr, "majicd: -peers requires the shared repository (drop -isolated)")
		os.Exit(2)
	}
	if *peers != "" && *nodeID == "" {
		fmt.Fprintln(os.Stderr, "majicd: -peers requires -node-id")
		os.Exit(2)
	}
	peerNodes, err := parsePeers(*peers, *nodeID, *advertise)
	if err != nil {
		fmt.Fprintf(os.Stderr, "majicd: -peers: %v\n", err)
		os.Exit(2)
	}
	engine := engineOptions()
	engine.Tier = t
	// server.New reconciles Engine and Library, so shared and -isolated
	// sessions get the same -async/-workers/-repo-max/-tiered.
	srv := server.New(server.Options{
		Engine:             engine,
		Library:            core.LibraryOptions{RepoMaxEntries: *repoMax},
		Isolated:           *isolated,
		RepoPath:           *repoPath,
		MaxSessions:        *maxSessions,
		MaxConcurrentEvals: *maxEvals,
		IdleTTL:            *idleTTL,
		MaxDeadline:        *deadline,
		Logger:             logger,
		NodeID:             *nodeID,
	})
	var repl *cluster.Replicator
	if len(peerNodes) > 0 {
		repl = cluster.NewReplicator(cluster.ReplicatorOptions{
			NodeID:   *nodeID,
			Lib:      srv.Library(),
			Peers:    peerNodes,
			Interval: *antiEntropy,
			Logger:   logger,
		})
		srv.SetClusterMetrics(func() any { return repl.Stats() })
		srv.RegisterClusterTelemetry("cluster", repl.CollectTelemetry)
		repl.Start()
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	mode := "shared"
	if *isolated {
		mode = "isolated"
	}
	logger.Info("listening",
		slog.String("addr", *addr),
		slog.String("tier", t.String()),
		slog.String("repo_mode", mode),
		slog.Bool("async", engine.AsyncCompile),
		slog.Bool("tiered", engine.Tiered),
		slog.Int("max_sessions", *maxSessions))
	if *repoPath != "" {
		pm := srv.Metrics().Persist
		switch {
		case pm.Load.Error != "":
			logger.Warn("cold start: snapshot rejected",
				slog.String("path", *repoPath), slog.String("error", pm.Load.Error))
		case pm.Load.Attempted:
			logger.Info("warm start",
				slog.String("path", *repoPath),
				slog.Int("entries", pm.Load.LoadedEntries),
				slog.Int("functions", pm.Load.LoadedFunctions),
				slog.Int("rejected_entries", pm.Load.RejectedEntries),
				slog.Int("rejected_functions", pm.Load.RejectedFunctions))
		default:
			logger.Info("cold start: no snapshot yet", slog.String("path", *repoPath))
		}
	}

	select {
	case err := <-errc:
		logger.Error("serve failed", slog.String("error", err.Error()))
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining", slog.String("signal", sig.String()))
	}

	// Flip /readyz to 503 before the listener stops: a cluster gateway
	// probing readiness fails new placements over to peers while this
	// node is still answering its in-flight evals.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if repl != nil {
		repl.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", slog.String("error", err.Error()))
		os.Exit(1)
	}
	logger.Info("stopped")
}

// parsePeers parses -peers ("id=url,id=url"), dropping this node's own
// entry (matched by node ID or by the -advertise URL).
func parsePeers(spec, selfID, selfAddr string) ([]cluster.Node, error) {
	if spec == "" {
		return nil, nil
	}
	var out []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=http://host:port)", part)
		}
		if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
			return nil, fmt.Errorf("peer %q: address must be a base URL", part)
		}
		if id == selfID || (selfAddr != "" && strings.TrimSuffix(addr, "/") == strings.TrimSuffix(selfAddr, "/")) {
			continue
		}
		out = append(out, cluster.Node{ID: id, Addr: strings.TrimSuffix(addr, "/")})
	}
	return out, nil
}
