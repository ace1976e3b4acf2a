// Command asterixd runs one AsterixDB node as an HTTP service — the
// client-facing face of the paper's Cluster Controller. It opens (or
// reopens) an instance over a data directory and serves the statement API:
//
//	asterixd -addr :19002 -data /var/lib/asterixdb
//
//	curl -X POST --data-binary 'create dataverse TinySocial;' localhost:19002/ddl
//	curl -X POST --data-binary 'for $u in dataset Users return $u;' localhost:19002/query
//	curl -X POST --data-binary '...' 'localhost:19002/query?mode=asynchronous'
//	curl 'localhost:19002/query/status?handle=...'
//	curl 'localhost:19002/query/result?handle=...'
//
// See the internal/server package for the full endpoint contract.
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
	"asterixdb/internal/server"
)

var (
	addrFlag       = flag.String("addr", ":19002", "listen address")
	dataFlag       = flag.String("data", "", "data directory (required)")
	partitionsFlag = flag.Int("partitions", 0, "storage partitions (default 4)")
	journaledFlag  = flag.Bool("journaled", false, "sync the WAL on every commit")
	ttlFlag        = flag.Duration("handle-ttl", 2*time.Minute, "async/deferred result handle TTL")
	memBudgetFlag  = flag.Int64("memory-budget", 0,
		"memory budget in bytes for blocking operators (sort, join build, group-by), which each job "+
			"and the result handle table get whole; a job exceeding it spills to run files under <data>/.spill; 0 = unconstrained")
	slowQueryFlag = flag.Int64("slow-query-ms", 0,
		"log every query slower than this many milliseconds with its per-operator profile summary (0 = off)")
)

func main() {
	flag.Parse()
	if *dataFlag == "" {
		log.Println("asterixd: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:      *dataFlag,
		Partitions:   *partitionsFlag,
		Journaled:    *journaledFlag,
		MemoryBudget: *memBudgetFlag,
	})
	if err != nil {
		log.Fatalf("asterixd: open instance: %v", err)
	}
	svc := server.New(inst, server.Options{
		HandleTTL:          *ttlFlag,
		SlowQueryThreshold: time.Duration(*slowQueryFlag) * time.Millisecond,
	})
	httpServer := &http.Server{Addr: *addrFlag, Handler: svc, ReadHeaderTimeout: server.ReadHeaderTimeout}

	// Graceful shutdown: stop accepting, let in-flight statements finish,
	// then close the instance (flushing LSM components and the WAL).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		log.Println("asterixd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("asterixd: shutdown: %v", err)
		}
		svc.Close()
		if err := inst.Close(); err != nil {
			log.Printf("asterixd: close instance: %v", err)
		}
	}()

	log.Printf("asterixd: serving on %s (data: %s)", *addrFlag, *dataFlag)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("asterixd: %v", err)
	}
	<-done
}
