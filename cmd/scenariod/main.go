// Command scenariod is the simulation daemon: a long-running HTTP/JSON
// service that accepts scenario submissions from many clients and
// serves them all out of one shared scenario store — coalescing
// duplicate in-flight work across clients, warming each checkpoint
// family once for all its members, and bounding concurrent simulations
// with -workers slots and a -queue-depth bound on the misses waiting
// for one: a miss beyond it is refused (HTTP 503) instead of buffered
// without limit, while a stored result is answered regardless.
//
// Usage:
//
//	scenariod [-addr HOST:PORT] [-cache-dir DIR] [-workers N] [-queue-depth N]
//	          [-addr-file PATH]
//
// -workers is the number of simulation slots: runs, warmups and forks
// executing at once. -queue-depth bounds the misses waiting for a slot.
// A request never holds a slot while it waits on a duplicate's run or
// on its family's warmup. -addr defaults to 127.0.0.1:8344; :0 picks a
// free port. -addr-file writes the bound address to PATH once listening
// (how scripts and CI discover a :0 port). -cache-dir persists results
// as content-addressed blobs shared with cmd/figures — a daemon pointed
// at a warm figure cache serves those sweeps without simulating.
//
// Endpoints: POST /v1/run, /v1/measure, /v1/static; GET /metrics,
// /healthz. See internal/serve for the wire structs and semantics.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, let in-flight
// requests finish (for up to 30 s), then refuse misses still waiting
// for a slot and wait for the simulations still running.
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
		workers    = flag.Int("workers", 0, "simulation slots (0: GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "misses waiting for a slot before 503 (0: 4x workers)")
	)
	flag.Parse()

	store, err := scenario.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenariod:", err)
		return 1
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
