// Package crashpoint provides fault-injection points for the crash-torture
// harness. Durability-critical code paths call Hit at the moments a crash
// would be most damaging (after a WAL append, between a component's temp
// write and its rename, mid-checkpoint). In normal operation a Hit is one
// atomic increment; when the ASTERIX_CRASHPOINT environment variable is set
// to N, the Nth Hit kills the process with SIGKILL — no deferred functions,
// no user-space flushes, the process simply stops mid-operation.
//
// This tests PROCESS-crash semantics, not power failure: dirty pages the
// process wrote before the SIGKILL still reach disk via the OS page cache,
// so a write that was never fsync'd can survive a kill -9 but would be lost
// (or torn) when the machine itself dies. The fsync discipline that covers
// the power-failure case — force the WAL before any component flush, fsync
// components before their atomic rename — is enforced by code ordering and
// asserted separately; the harness exercises every crash point's recovery
// path but cannot observe a missing fsync.
package crashpoint

import (
	"os"
	"strconv"
	"sync/atomic"
)

// EnvVar names the environment variable selecting the fatal hit count.
// Unset or non-positive disables killing; hits are still counted so a
// calibration run can report how many crash opportunities a workload has.
const EnvVar = "ASTERIX_CRASHPOINT"

var (
	count  atomic.Int64
	target int64
	hook   atomic.Pointer[func(name string)]
)

func init() {
	if v := os.Getenv(EnvVar); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			target = n
		}
	}
}

// Hit records one crash opportunity. The name labels the call site: it
// makes kill sites identifiable when a torture cycle is replayed under a
// debugger, and it is what a hook sees.
func Hit(name string) {
	if h := hook.Load(); h != nil {
		(*h)(name)
	}
	n := count.Add(1)
	if target > 0 && n == target {
		p, err := os.FindProcess(os.Getpid())
		if err == nil {
			p.Kill()
		}
		// SIGKILL delivery is asynchronous; never let this goroutine
		// proceed past the crash point.
		select {}
	}
}

// SetHook makes every Hit call fn with its name first, until the returned
// restore is called. A test uses it to hold one goroutine at a named point
// while it drives another, or to look at the files at that moment; fn runs
// on the goroutine that hit the point, holding whatever that holds.
func SetHook(fn func(name string)) (restore func()) {
	hook.Store(&fn)
	return func() { hook.Store(nil) }
}

// Count reports how many crash opportunities the process has hit so far.
func Count() int64 { return count.Load() }
