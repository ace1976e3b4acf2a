// Command asterixcc runs the cluster controller: the coordinator of a
// multi-process AsterixDB deployment. It owns the catalog, compiles AQL into
// Hyracks jobs, fans statements and job slices out to the registered
// asterixnc node controllers, gathers result frames, and fronts the whole
// cluster behind the same HTTP statement API asterixd serves:
//
//	asterixcc -addr :19002 -ctrl :19101 -cluster-data :19102 \
//	          -data /var/lib/asterixcc -nodes 2
//
// The controller's data directory holds only the catalog replica and spill
// space — base data lives exclusively on the node controllers. /health
// returns 503 until -nodes node controllers have registered.
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
	"time"

	"asterixdb"
	"asterixdb/internal/cluster"
	"asterixdb/internal/server"
)

var (
	addrFlag       = flag.String("addr", ":19002", "HTTP statement API listen address")
	ctrlFlag       = flag.String("ctrl", ":19101", "control-plane listen address (node registrations)")
	dataAddrFlag   = flag.String("cluster-data", ":19102", "data-plane listen address (result streams)")
	dataFlag       = flag.String("data", "", "catalog/spill directory (required)")
	nodesFlag      = flag.Int("nodes", 0, "number of node controllers to expect (required)")
	partitionsFlag = flag.Int("partitions", 0, "cluster-wide storage partitions (default 4; must match the nodes)")
	ttlFlag        = flag.Duration("handle-ttl", 2*time.Minute, "async/deferred result handle TTL")
	memBudgetFlag  = flag.Int64("memory-budget", 0, "memory budget in bytes each job and the result handle table get whole (0 = unconstrained)")
	slowQueryFlag  = flag.Int64("slow-query-ms", 0,
		"log every query slower than this many milliseconds with its per-operator profile summary (0 = off)")
)

func main() {
	flag.Parse()
	if *dataFlag == "" || *nodesFlag <= 0 {
		log.Println("asterixcc: -data and -nodes are required")
		flag.Usage()
		os.Exit(2)
	}
	// The controller's instance is the catalog replica and compile authority:
	// it owns no storage partitions, so DML applied to it updates metadata
	// and counts but stores no base records.
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:       *dataFlag,
		Partitions:    *partitionsFlag,
		MemoryBudget:  *memBudgetFlag,
		OwnsPartition: func(int) bool { return false },
	})
	if err != nil {
		log.Fatalf("asterixcc: open catalog instance: %v", err)
	}
	cc, err := cluster.NewController(inst, cluster.ControllerConfig{
		CtrlAddr:    *ctrlFlag,
		DataAddr:    *dataAddrFlag,
		ExpectNodes: *nodesFlag,
	})
	if err != nil {
		log.Fatalf("asterixcc: start controller: %v", err)
	}
	svc := server.New(cc, server.Options{
		HandleTTL:          *ttlFlag,
		SlowQueryThreshold: time.Duration(*slowQueryFlag) * time.Millisecond,
	})
	httpServer := &http.Server{Addr: *addrFlag, Handler: svc, ReadHeaderTimeout: server.ReadHeaderTimeout}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Println("asterixcc: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("asterixcc: shutdown: %v", err)
		}
		svc.Close()
		cc.Close()
		if err := inst.Close(); err != nil {
			log.Printf("asterixcc: close catalog instance: %v", err)
		}
	}()

	log.Printf("asterixcc: serving on %s (ctrl %s, data-plane %s, expecting %d node(s))",
		*addrFlag, cc.CtrlAddr(), cc.DataAddr(), *nodesFlag)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("asterixcc: %v", err)
	}
	<-done
}
