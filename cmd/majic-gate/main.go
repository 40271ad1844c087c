// Command majic-gate fronts a majicd fleet: a consistent-hash session
// router speaking the daemon's own HTTP/JSON protocol, so clients point
// at one address and the gateway places each session on a fleet node,
// proxies its requests there, and fails it over (recreating the session
// and replaying its definitions and workspace bindings) when the node
// dies or drains.
//
//	majic-gate -addr :8756 \
//	  -nodes a=http://10.0.0.1:8757,b=http://10.0.0.2:8757,c=http://10.0.0.3:8757
//
// Extra endpoints on top of the proxied session API:
//
//	GET /metrics        → gateway counters + every node's /metrics + fleet sums (JSON)
//	GET /metrics.prom   → majic_gate_* families, Prometheus text exposition
//	GET /cluster/nodes  → ring membership with live readiness
//	GET /healthz        → gateway liveness
//	GET /readyz         → 200 while at least one fleet node is ready
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
)

func main() {
	addr := flag.String("addr", ":8756", "listen address")
	nodes := flag.String("nodes", "", "fleet membership: id=http://host:port,... (required)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per fleet node on the hash ring (0 = default 64)")
	healthInterval := flag.Duration("health-interval", 0, "readiness probe period (0 = default 2s)")
	proxyTimeout := flag.Duration("proxy-timeout", 2*time.Minute, "per-request timeout toward fleet nodes")
	maxReplayOps := flag.Int("max-replay-ops", 0, "per-session failover replay log cap (0 = default 256); overflow evicts the oldest definitions, counted in majic_gate_replay_evicted_total")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug|info|warn|error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "majic-gate: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	fleet, err := cluster.ParseNodes(*nodes, "", "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "majic-gate: -nodes: %v\n", err)
		os.Exit(2)
	}
	ring, err := cluster.NewRing(*vnodes, fleet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "majic-gate: %v\n", err)
		os.Exit(2)
	}
	health := cluster.NewHealth(fleet, *healthInterval, nil)
	health.Start()
	gw := cluster.NewGateway(cluster.GatewayOptions{
		Ring:         ring,
		Health:       health,
		Client:       &http.Client{Timeout: *proxyTimeout},
		Logger:       logger,
		MaxReplayOps: *maxReplayOps,
	})

	hs := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ids := make([]string, len(fleet))
	for i, n := range fleet {
		ids[i] = n.ID
	}
	logger.Info("listening",
		slog.String("addr", *addr),
		slog.String("nodes", strings.Join(ids, ",")),
		slog.Int("vnodes", ring.Vnodes()))

	select {
	case err := <-errc:
		logger.Error("serve failed", slog.String("error", err.Error()))
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("stopping", slog.String("signal", sig.String()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	health.Stop()
	logger.Info("stopped")
}
