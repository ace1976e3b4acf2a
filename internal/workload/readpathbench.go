package workload

import "fmt"

// This file is the shared definition of the read-path benchmark: the dataset
// sizes, the workload queries, and the BENCH_readpath.json row schema are
// used by both the go-test benchmarks (BenchmarkReadPathScan and friends)
// and the asterixbench CLI (-readpath), so the two writers can never drift
// into incompatible formats.

// ReadPathSizes is the dataset-size sweep for the scan-scaling measurement.
// Per-record scan time must stay flat across it: before the resumable LSM
// iterator, every scan chunk restarted a full Range merge and per-record
// time grew roughly linearly with dataset size.
var ReadPathSizes = []int{10_000, 100_000, 1_000_000}

// ReadPathDDL creates the scan dataset.
const ReadPathDDL = `
create type ReadPathType as closed { id: int32, k: int32 };
create dataset Big(ReadPathType) primary key id;`

// Read-path workload queries.
const (
	// ReadPathScanQuery is the full-scan drain.
	ReadPathScanQuery = `for $x in dataset Big return $x.k;`
	// ReadPathFirstRowQuery is the limit-over-scan whose time-to-first-row
	// the streaming cursor measures.
	ReadPathFirstRowQuery = `for $x in dataset Big limit 20000 return $x;`
	// ReadPathPipelineQuery is the scan -> select -> assign -> distribute
	// chain compared fused vs unfused.
	ReadPathPipelineQuery = `for $x in dataset Big where $x.k >= 10 let $v := $x.k + 1 return $v;`
)

// ReadPathRegressions compares a fresh benchmark run against a committed
// baseline and reports every full-scan tier whose per-record time regressed
// by more than tolerance (0.20 = 20%). Only full-scan rows guard the build:
// ns/record over 10k+ records is the one number stable enough to gate on,
// where the sub-millisecond latency workloads (first-row) are pure CI-runner
// noise. Tiers present in only one of the two runs (e.g. a reduced-scale CI
// sweep against a full-scale baseline) are skipped, not failed.
func ReadPathRegressions(baseline, measured []ReadPathRow, tolerance float64) []string {
	base := make(map[int]float64)
	for _, r := range baseline {
		if r.Workload == "full-scan" && r.NsPerRecord > 0 {
			base[r.Records] = r.NsPerRecord
		}
	}
	var failures []string
	for _, r := range measured {
		if r.Workload != "full-scan" || r.NsPerRecord <= 0 {
			continue
		}
		b, ok := base[r.Records]
		if !ok {
			continue
		}
		if r.NsPerRecord > b*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"full-scan @ %d records: %.2f ns/record vs baseline %.2f (+%.0f%%, tolerance %.0f%%)",
				r.Records, r.NsPerRecord, b, (r.NsPerRecord/b-1)*100, tolerance*100))
		}
	}
	return failures
}

// ReadPathRow is one measurement in BENCH_readpath.json.
type ReadPathRow struct {
	// Workload is full-scan, first-row or pipeline-fused.
	Workload string `json:"workload"`
	// Records is the dataset size the measurement ran against.
	Records int `json:"records"`
	// Ns is the median latency of the measured operation in nanoseconds.
	Ns int64 `json:"ns"`
	// NsPerRecord is Ns divided by Records for throughput workloads (zero
	// for latency-only workloads such as first-row).
	NsPerRecord float64 `json:"ns_per_record,omitempty"`
	// Rows is the number of result rows drained (sanity check).
	Rows int `json:"rows,omitempty"`
}
