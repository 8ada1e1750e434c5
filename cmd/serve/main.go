// Command serve runs the coverage service: an HTTP/JSON API in front of
// a bounded queue and worker pool that executes multi-restart coverage
// optimizations as cancellable, checkpointable jobs, plus the live
// deployment runtime that executes plans, detects drift, and hot-swaps
// re-optimized schedules (under /deployments), plus the content-
// addressed plan library (under /plans) that serves already-solved
// scenarios from cache and warm-starts near-misses. Operational metrics
// are exposed at /metrics in Prometheus text format.
//
// Usage:
//
//	serve -addr :8080 -workers 4 -checkpoint-dir ./state
//
// With a checkpoint directory, interrupted jobs survive a restart of the
// server and resume from their last completed restart, and live
// deployments resume bit-for-bit. Adding -shard (plus a unique
// -node-id) lets any number of serve instances share one checkpoint
// directory as a cluster: multi-restart jobs split into work-leased
// restart shards that the nodes claim, checkpoint, and merge
// deterministically, with takeover on node death. See the README for a
// curl walkthrough of the APIs and the multi-node setup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/plans"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until the listener fails or the
// process receives SIGINT/SIGTERM. When ready is non-nil it receives the
// bound address once the listener is up (used by tests to connect to a
// ":0" server).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 2, "worker pool size")
		queue      = fs.Int("queue", 16, "pending-job queue depth")
		jobWorkers = fs.Int("max-job-workers", 1, "cap on each job's options.workers, the restarts one optimize call runs at once (a shard runs one restart per call, so this bounds nothing yet); 0 = uncapped")
		profile    = fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
		dir        = fs.String("checkpoint-dir", "", "job and deployment checkpoint directory (empty disables persistence)")
		planCache  = fs.Int("plan-cache", plans.DefaultCapacity, "in-memory plan-library LRU capacity")
		deploys    = fs.Int("max-deployments", 64, "cap on concurrent deployments")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for draining workers")
		logLevel   = fs.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		logFormat  = fs.String("log-format", "text", "log output format (text, json)")
		shard      = fs.Bool("shard", false, "shard multi-restart jobs across every serve instance sharing the checkpoint dir (requires -checkpoint-dir)")
		nodeID     = fs.String("node-id", "", "node name in shard leases and, with -shard, job IDs (default hostname-pid); must be unique per instance")
		shardSize  = fs.Int("shard-restarts", 1, "restarts per shard when -shard is on")
		leaseTTL   = fs.Duration("lease-ttl", 10*time.Second, "shard lease time-to-live before another node may take over")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shard && *dir == "" {
		return fmt.Errorf("-shard requires -checkpoint-dir (the shared store nodes coordinate through)")
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	httpHist := reg.HistogramVec("http_request_duration_seconds",
		"HTTP request latency by route pattern and status code.",
		obs.DefBuckets, "route", "status")

	mgr, err := jobs.New(jobs.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxJobWorkers: *jobWorkers,
		Dir:           *dir,
		Logger:        logger,
		Metrics:       reg,
		Shard: jobs.ShardConfig{
			Enabled:   *shard,
			Node:      *nodeID,
			ShardSize: *shardSize,
			LeaseTTL:  *leaseTTL,
		},
	})
	if err != nil {
		return err
	}
	// The plan library shares the checkpoint directory: its entry blobs
	// (<fingerprint>.entry.json) coexist with the job and deployment
	// checkpoints, each loader filtering by its own suffix.
	var planStore jobs.Store
	if *dir != "" {
		planStore, err = jobs.NewFSStore(*dir)
		if err != nil {
			return err
		}
	}
	lib, err := plans.New(plans.Config{
		Store:    planStore,
		Capacity: *planCache,
		Logger:   logger,
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	svc, err := plans.NewService(plans.ServiceConfig{
		Library: lib,
		Jobs:    mgr,
		Logger:  logger,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	// Every completed optimization — direct submissions, /plans:query
	// misses, deployment re-optimizations — publishes into the library.
	mgr.SetDoneListener(svc.OnJobDone)
	rt, err := deploy.New(deploy.Config{
		Jobs:           mgr,
		Plans:          lib,
		Dir:            *dir,
		MaxDeployments: *deploys,
		Logger:         logger,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}
	// Forward re-optimization progress into deployment event streams.
	// Wired post-construction: the manager exists before the runtime.
	mgr.SetProgressListener(rt.NoteJobProgress)
	registerServeMetrics(reg, mgr, rt)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", mgr.Handler())
	// More specific patterns win, so the deployment routes take
	// precedence over the job handler's "/" mount.
	mux.Handle("/deployments", rt.Handler())
	mux.Handle("/deployments/", rt.Handler())
	planAPI := svc.Handler()
	mux.Handle("POST /plans:query", planAPI)
	mux.Handle("/plans", planAPI)
	mux.Handle("/plans/", planAPI)
	mux.Handle("GET /metrics", reg.Handler())
	if *profile {
		// The default-mux registrations in net/http/pprof don't apply to
		// this private mux; wire the handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{
		Handler: obs.Middleware(mux, obs.Component(logger, "http"), httpHist),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", *workers),
		slog.Int("queue", *queue),
		slog.String("checkpointDir", *dir))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		// Listener died on its own; still drain the pool so in-flight
		// jobs checkpoint.
		shutdownErr := shutdownAll(srv, mgr, rt, *drain)
		return errors.Join(err, shutdownErr)
	case <-ctx.Done():
		logger.Info("signal received, draining")
		if err := shutdownAll(srv, mgr, rt, *drain); err != nil {
			return err
		}
		<-errc // Serve returns http.ErrServerClosed after Shutdown
		logger.Info("drained cleanly")
		return nil
	}
}

// shutdownAll closes the HTTP server, checkpoints the deployments (so
// they resume bit-for-bit on restart), then drains the worker pool so
// every in-flight job checkpoints and parks as paused. Deployments stop
// before the job manager: a late drift trigger must not hit a closed
// queue.
func shutdownAll(srv *http.Server, mgr *jobs.Manager, rt *deploy.Runtime, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	httpErr := srv.Shutdown(ctx)
	if httpErr != nil {
		// Pending responses did not finish in time; close hard so the
		// pool drain below is not starved of budget.
		srv.Close()
	}
	rt.Shutdown()
	if err := mgr.Shutdown(ctx); err != nil {
		return errors.Join(httpErr, err)
	}
	return httpErr
}
