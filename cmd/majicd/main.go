// Command majicd is the multi-session evaluation daemon: an HTTP/JSON
// server hosting many concurrent MATLAB sessions that share one
// process-wide code repository and compile queue, so one session's JIT
// compile warms every other session's locator.
//
//	majicd -addr :8757              # the fast path: -tier=prod
//	majicd -addr :8757 -tier=jit    # paper-mode JIT sessions
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
// The two /cluster routes stay for the benchmark's in-process fleet
// probe; majicd itself replicates nothing.
//
// SIGINT/SIGTERM mark the daemon not-ready, drain in-flight
// evaluations, close every session and the shared compile queue, then
// exit 0. A restart keeps compiled code when -repo-path is set; it
// loses every session and its workspace.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8757", "listen address")
	tier := flag.String("tier", "prod", "session engines' execution strategy: prod (tiered JIT, background compiles, fused kernels), or interp|mcc|falcon|jit|spec in paper mode")
	repoMax := flag.Int("repo-max", 0, "max compiled entries per function in the shared repository (0 = unbounded)")
	repoPath := flag.String("repo-path", "", "persist the shared repository to this file: warm-start on boot, write-behind snapshots, flush on drain")
	maxSessions := flag.Int("max-sessions", 256, "session table cap")
	maxEvals := flag.Int("max-evals", 0, "max concurrently executing evals (0 = 2x GOMAXPROCS)")
	idleTTL := flag.Duration("idle-ttl", 15*time.Minute, "evict sessions idle longer than this")
	deadline := flag.Duration("deadline", 60*time.Second, "default and maximum per-eval deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug|info|warn|error (JSON lines on stderr; debug adds per-request and per-eval records)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "majicd: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	engine, err := core.Preset(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv := server.New(server.Options{
		Engine:             engine,
		Library:            core.LibraryOptions{RepoMaxEntries: *repoMax},
		RepoPath:           *repoPath,
		MaxSessions:        *maxSessions,
		MaxConcurrentEvals: *maxEvals,
		IdleTTL:            *idleTTL,
		MaxDeadline:        *deadline,
		Logger:             logger,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	logger.Info("listening",
		slog.String("addr", *addr),
		slog.String("tier", *tier),
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

	// Flip /readyz to 503 before the listener stops: a load balancer
	// probing readiness stops sending new sessions while this daemon is
	// still answering its in-flight evals.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", slog.String("error", err.Error()))
		os.Exit(1)
	}
	logger.Info("stopped")
}
