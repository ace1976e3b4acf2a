package cluster

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"asterixdb"
)

// TestHelperNC is not a test: it is the node-controller process body the
// kill test re-executes this test binary into. Guarded by an environment
// variable so normal test runs skip it.
func TestHelperNC(t *testing.T) {
	if os.Getenv("ASTERIX_NC_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	partitions, _ := strconv.Atoi(os.Getenv("ASTERIX_NC_PARTITIONS"))
	node, err := NewNode(NodeConfig{
		Name:       os.Getenv("ASTERIX_NC_NAME"),
		CCAddr:     os.Getenv("ASTERIX_NC_CC"),
		DataDir:    os.Getenv("ASTERIX_NC_DATA"),
		Partitions: partitions,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Runs until the coordinator connection dies or the process is killed.
	_ = node.Run(context.Background())
	os.Exit(0)
}

func spawnNC(t *testing.T, name, ccAddr, dataDir string, partitions int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperNC$", "-test.v")
	cmd.Env = append(os.Environ(),
		"ASTERIX_NC_HELPER=1",
		"ASTERIX_NC_NAME="+name,
		"ASTERIX_NC_CC="+ccAddr,
		"ASTERIX_NC_DATA="+dataDir,
		fmt.Sprintf("ASTERIX_NC_PARTITIONS=%d", partitions),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// spillFiles lists the run files currently present under a spill directory.
func spillFiles(dir string) []string {
	var files []string
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	return files
}

// TestClusterKillNodeMidQuery is the failure-semantics acceptance test: the
// node controllers run as real OS processes, one is SIGKILLed while a large
// query is streaming, and the coordinator must (a) surface a typed
// unavailable error through the open cursor, (b) leak no goroutines, run
// files or open cursors, and (c) stay healthy itself.
func TestClusterKillNodeMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const partitions = 4
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:       t.TempDir(),
		Partitions:    partitions,
		OwnsPartition: func(int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	cc, err := NewController(inst, ControllerConfig{
		ExpectNodes:       2,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RPCTimeout:        15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	spawnNC(t, "nc1", cc.CtrlAddr(), t.TempDir(), partitions)
	victim := spawnNC(t, "nc2", cc.CtrlAddr(), t.TempDir(), partitions)
	if err := cc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	mustExec := func(src string) {
		t.Helper()
		if _, err := cc.ExecuteContext(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`
drop dataverse Kill if exists;
create dataverse Kill;
use dataverse Kill;
create type T as { id: int64, grp: int64 }
create dataset D(T) primary key id;`)
	// 1500 rows in 5 groups: the self-join below produces 5 x 300^2 = 450k
	// result tuples, far more than the stream buffer, so the query is
	// reliably mid-flight when the victim dies.
	for base := 0; base < 1500; base += 100 {
		var recs []string
		for i := base; i < base+100; i++ {
			recs = append(recs, fmt.Sprintf(`{ "id": %d, "grp": %d }`, i, i%5))
		}
		mustExec(`use dataverse Kill; insert into dataset D ([` + strings.Join(recs, ",") + `]);`)
	}

	baseline := runtime.NumGoroutine()

	cur, err := cc.QueryStream(ctx, `
use dataverse Kill;
for $a in dataset D
for $b in dataset D
where $a.grp = $b.grp
return { "a": $a.id, "b": $b.id };`)
	if err != nil {
		t.Fatal(err)
	}
	// Prove the stream is live, then kill -9 the victim node mid-query.
	if !cur.Next() {
		t.Fatalf("no first result before kill: %v", cur.Err())
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = victim.Process.Wait()

	for cur.Next() {
		// Drain until the failure surfaces.
	}
	err = cur.Err()
	if asterixdb.ErrorCode(err) != asterixdb.CodeUnavailable {
		t.Fatalf("mid-query kill error = %v (code %q), want code %q",
			err, asterixdb.ErrorCode(err), asterixdb.CodeUnavailable)
	}
	if !strings.Contains(err.Error(), "nc2") {
		t.Errorf("error should name the dead node: %v", err)
	}
	cur.Close()

	// No leaked goroutines on the coordinator: every job goroutine, result
	// handler and backstop timer must unwind promptly.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Millisecond)
	}

	// No run files left behind on the coordinator.
	if files := spillFiles(cc.SpillDir()); len(files) != 0 {
		t.Fatalf("coordinator spill dir not clean after failed query: %v", files)
	}

	// The coordinator itself stays healthy (degraded cluster, live CC)...
	if err := cc.Health(); err != nil {
		t.Fatalf("controller health after node kill = %v, want nil", err)
	}
	// ...while new queries are refused with the typed unavailable error.
	qErr := func() error {
		cur, err := cc.QueryStream(ctx, `use dataverse Kill; for $d in dataset D return $d;`)
		if err != nil {
			return err
		}
		_, err = drainCursor(cur)
		return err
	}()
	if asterixdb.ErrorCode(qErr) != asterixdb.CodeUnavailable {
		t.Fatalf("query after node kill = %v, want unavailable", qErr)
	}
}
