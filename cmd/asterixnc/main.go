// Command asterixnc runs one node controller: a worker process that owns a
// subset of the cluster's storage partitions on local LSM storage and
// executes the operator instances the cluster controller places on it.
//
//	asterixnc -name nc1 -cc cchost:19101 -data /var/lib/asterixnc1
//
// The node registers with the cluster controller at -cc, learns the cluster
// roster, and serves until the controller connection is lost or the process
// is signalled. Partition ownership is derived from the node's rank in the
// sorted roster, so node names must be unique and stable across restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"asterixdb/internal/cluster"
	"asterixdb/internal/metrics"
	"asterixdb/internal/server"
)

var (
	nameFlag       = flag.String("name", "", "unique, stable node name (required)")
	ccFlag         = flag.String("cc", "", "cluster controller control-plane address (required)")
	dataAddrFlag   = flag.String("data-addr", "127.0.0.1:0", "data-plane listen address for peer frame exchange")
	dataFlag       = flag.String("data", "", "local data directory (required)")
	partitionsFlag = flag.Int("partitions", 0, "cluster-wide storage partitions (default 4; must match the controller)")
	memBudgetFlag  = flag.Int64("memory-budget", 0, "memory budget in bytes each job slice gets whole (0 = unconstrained)")
	metricsFlag    = flag.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
)

func main() {
	flag.Parse()
	if *nameFlag == "" || *ccFlag == "" || *dataFlag == "" {
		log.Println("asterixnc: -name, -cc and -data are required")
		flag.Usage()
		os.Exit(2)
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Name:         *nameFlag,
		CCAddr:       *ccFlag,
		DataAddr:     *dataAddrFlag,
		DataDir:      *dataFlag,
		Partitions:   *partitionsFlag,
		MemoryBudget: *memBudgetFlag,
	})
	if err != nil {
		log.Fatalf("asterixnc: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var metricsServer *http.Server
	if *metricsFlag != "" {
		reg := metrics.NewRegistry()
		node.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler(reg))
		metricsServer = &http.Server{Addr: *metricsFlag, Handler: mux, ReadHeaderTimeout: server.ReadHeaderTimeout}
		go func() {
			if err := metricsServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("asterixnc: metrics listener: %v", err)
			}
		}()
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		log.Println("asterixnc: shutting down")
		if metricsServer != nil {
			metricsServer.Close()
		}
		cancel()
	}()
	log.Printf("asterixnc: node %s joining cluster at %s (data: %s)", *nameFlag, *ccFlag, *dataFlag)
	if err := node.Run(ctx); err != nil && ctx.Err() == nil {
		log.Fatalf("asterixnc: %v", err)
	}
}
