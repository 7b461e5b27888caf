package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbs3/internal/cluster"
)

// coordMain is the `dbs3 coord` subcommand: the scatter-gather query
// coordinator over a set of serve nodes. It speaks the same wire protocol
// as a single node, so any client points at it unchanged; queries compile
// once, fan out to every node, and the partial streams merge locally
// (union for selections/joins, group-wise merge aggregation for GROUP BY).
func coordMain(args []string) {
	fs := flag.NewFlagSet("dbs3 coord", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8090", "listen address")
		nodes   = fs.String("nodes", "", "comma-separated worker base URLs, one entry per shard; \"|\" joins a shard's replicas (e.g. http://h1:8080,http://h2a:8080|http://h2b:8080)")
		token   = fs.String("token", "", "bearer token: presented to workers and required of clients (empty = no auth)")
		wire    = fs.String("wire", "columnar", "worker-link result encoding: columnar, ndjson")
		poll    = fs.Duration("poll", 2*time.Second, "health/utilization poll interval (negative = off)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-worker-request header timeout")
		retries = fs.Int("retries", 3, "connect retries per worker request (negative = off)")

		retryWhole   = fs.Bool("retry-whole-query", false, "restart a query once when a replica dies after rows merged (only if nothing was delivered yet)")
		brkThreshold = fs.Int("breaker-threshold", 3, "consecutive probe/query failures that open a replica's circuit breaker")
		brkCooloff   = fs.Duration("breaker-cooloff", 5*time.Second, "how long an open breaker withholds traffic before half-opening")
	)
	fs.Parse(args)

	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		fatal(fmt.Errorf("coord needs -nodes"))
	}

	// The signal context is the coordinator's lifecycle: SIGINT/SIGTERM
	// stops the background poller (cancelling in-flight /stats requests)
	// along with the HTTP front end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	coord, err := cluster.New(ctx, cluster.Config{
		Nodes:            nodeList,
		Token:            *token,
		Wire:             *wire,
		Timeout:          *timeout,
		Retries:          *retries,
		PollInterval:     *poll,
		RetryWholeQuery:  *retryWhole,
		BreakerThreshold: *brkThreshold,
		BreakerCooloff:   *brkCooloff,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Close()

	// Surface dead replicas at startup rather than on the first query; the
	// cluster still starts (nodes may join late), the operator just knows
	// which shard is running without redundancy.
	probeCtx, probeCancel := context.WithTimeout(ctx, *timeout)
	if report, err := coord.Health(probeCtx); err != nil {
		for _, nh := range report {
			if !nh.Healthy {
				fmt.Fprintf(os.Stderr, "dbs3: warning: shard %d replica %s down (breaker %s): %s\n",
					nh.Shard, nh.Node, nh.Breaker, nh.Error)
			}
		}
	}
	probeCancel()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dbs3: coordinating %d nodes on http://%s (%s)\n",
		len(nodeList), ln.Addr(), strings.Join(nodeList, ", "))

	serveHTTP(ctx, ln, coord.Handler())
	st := coord.Stats()
	fmt.Printf("dbs3: coordinated %d queries (%d failed, %d failovers, %d whole-query retries, %d statement re-prepares), %d/%d replicas healthy at exit\n",
		st.Queries, st.Failures, st.Failovers, st.WholeQueryRetries, st.Repreparations, st.Healthy, len(st.Nodes))
}
