// Command scenariod is the simulation daemon: a long-running HTTP/JSON
// service that accepts scenario submissions from many clients and
// serves them all out of one shared scenario store — coalescing
// duplicate in-flight work across clients, batching same-warmup-family
// jobs so a fleet-submitted sweep warms each checkpoint once, and
// bounding concurrent execution with an admission queue that rejects
// (HTTP 503) instead of buffering without limit.
//
// Usage:
//
//	scenariod [-addr HOST:PORT] [-cache-dir DIR] [-workers N] [-queue-depth N]
//	          [-no-ckpt-fork] [-addr-file PATH]
//
// -addr defaults to 127.0.0.1:8344; :0 picks a free port. -addr-file
// writes the bound address to PATH once listening (how scripts and CI
// discover a :0 port). -cache-dir persists results as content-addressed
// blobs shared with cmd/figures — a daemon pointed at a warm figure
// cache serves those sweeps without simulating.
//
// Endpoints: POST /v1/run, /v1/measure, /v1/static; GET /metrics,
// /healthz. See internal/serve for the wire structs and semantics.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, finish in-flight
// simulations, fail queued-but-unstarted work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold connections
// open without limit. Request bodies are capped by the server itself.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "listen address (use :0 for a free port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		cacheDir   = flag.String("cache-dir", "", "persistent blob cache directory (empty: memory only)")
		workers    = flag.Int("workers", 0, "execution pool workers (0: GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "admission queue bound (0: 4x workers)")
		noCkptFork = flag.Bool("no-ckpt-fork", false, "disable warm-checkpoint forking (and with it warmup-family batching)")
	)
	flag.Parse()

	store, err := scenario.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenariod:", err)
		return 1
	}
	if *noCkptFork {
		store.DisableCheckpointForking()
	}
	srv, err := serve.New(serve.Options{
		Store:      store,
		Workers:    *workers,
		QueueDepth: *queueDepth,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenariod:", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenariod:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scenariod:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "scenariod: listening on", bound)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintln(os.Stderr, "scenariod: shutting down on", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "scenariod: shutdown:", err)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "scenariod:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "scenariod:", srv.Store().Metrics())
	return 0
}
