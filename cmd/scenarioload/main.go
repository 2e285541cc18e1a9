// Command scenarioload load-tests a scenariod daemon with the traffic
// shape of a sweep-submitting fleet: a duplicate-heavy phase (many
// clients racing for few distinct specs — the cross-client coalescing
// case), a checkpoint-share phase (distinct specs in one warmup family
// — the checkpoint-sharing case: one warmup, a fork per member), and a
// cold-miss phase (the overhead floor).
// It reports per-phase throughput, latency percentiles, and the
// daemon store's hit/coalesce/miss deltas.
//
// Usage:
//
//	scenarioload -server URL | -spawn
//	             [-clients N] [-requests N] [-distinct N] [-seed S]
//	             [-quick] [-compare] [-min-speedup X]
//
// -spawn starts an in-process daemon on a loopback port instead of
// targeting a running one (self-contained smoke mode for scripts and
// CI). -compare replays the duplicate-heavy mix as per-client direct
// execution — no daemon, no shared store — and prints the aggregate
// throughput ratio; -min-speedup fails the run (exit 1) when that
// ratio falls below X.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/loadgen"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		server     = flag.String("server", "", "scenariod base URL (e.g. http://127.0.0.1:8344)")
		spawn      = flag.Bool("spawn", false, "start an in-process daemon on a loopback port")
		clients    = flag.Int("clients", 8, "concurrent submitting clients")
		requests   = flag.Int("requests", 96, "requests per phase")
		distinct   = flag.Int("distinct", 2, "distinct specs in the duplicate-heavy mix")
		seed       = flag.Int64("seed", 1, "workload seed offset (vary to defeat a warm cache)")
		quick      = flag.Bool("quick", false, "small workloads for smoke tests")
		compare    = flag.Bool("compare", false, "replay the duplicate-heavy mix as direct per-client execution")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless daemon/direct throughput ratio reaches X (implies -compare)")
	)
	flag.Parse()
	if *minSpeedup > 0 {
		*compare = true
	}
	if (*server == "") == !*spawn {
		fmt.Fprintln(os.Stderr, "scenarioload: exactly one of -server or -spawn is required")
		return 2
	}

	base := *server
	if *spawn {
		srv, err := serve.New(serve.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenarioload:", err)
			return 1
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenarioload:", err)
			return 1
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintln(os.Stderr, "scenarioload: spawned daemon on", base)
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		Client:   client.New(base),
		Clients:  *clients,
		Requests: *requests,
		Distinct: *distinct,
		Seed:     *seed,
		Quick:    *quick,
		Compare:  *compare,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarioload:", err)
		return 1
	}
	fmt.Print(rep)
	for _, p := range rep.Phases {
		if p.Errors > 0 {
			fmt.Fprintf(os.Stderr, "scenarioload: %d request errors in %s phase\n", p.Errors, p.Name)
			return 1
		}
	}
	if *minSpeedup > 0 && rep.Speedup < *minSpeedup {
		fmt.Fprintf(os.Stderr, "scenarioload: speedup %.1fx below required %.1fx\n", rep.Speedup, *minSpeedup)
		return 1
	}
	return 0
}
