package hyracks

import (
	"context"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// profileTestJob builds source(n rows) -> select(even) -> sink; the chain
// is fully one-to-one so FuseJob collapses it into a single FusedOp.
func profileTestJob(n int) *Job {
	job := &Job{Profile: true}
	src := job.Add(&SourceOp{
		Label:      "source",
		Partitions: 1,
		Produce: func(_ int, emit func(Tuple) bool) error {
			for i := 0; i < n; i++ {
				if !emit(Tuple{adm.Int64(i)}) {
					return nil
				}
			}
			return nil
		},
	})
	sel := job.Add(selectOp("select", 1, func(t Tuple) (bool, error) { return int64(t[0].(adm.Int64))%2 == 0, nil }))
	sink := job.Add(&PassthroughOp{Label: "sink", Partitions: 1})
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, sink, Connector{Kind: OneToOne})
	return job
}

func runProfile(t *testing.T, job *Job) (*JobProfile, int) {
	t.Helper()
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		_, ok := cur.Next()
		if !ok {
			break
		}
		rows++
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	p := cur.Profile()
	if p == nil {
		t.Fatal("Profile() nil after Close on a Profile job")
	}
	return p, rows
}

func TestProfileCountsUnfused(t *testing.T) {
	const n = 1000
	p, rows := runProfile(t, profileTestJob(n))
	if rows != n/2 {
		t.Fatalf("rows = %d, want %d", rows, n/2)
	}
	out := p.OutByName()
	if out["source"] != n || out["select"] != n/2 || out["sink"] != n/2 {
		t.Fatalf("OutByName = %v", out)
	}
	in := p.InByName()
	if in["select"] != n || in["sink"] != n/2 {
		t.Fatalf("InByName = %v", in)
	}
	for _, r := range p.Operators {
		if r.Stage != -1 {
			t.Fatalf("unfused run has staged row %+v", r)
		}
		if r.WallNanos <= 0 {
			t.Fatalf("row %s has no wall time", r.Name)
		}
	}
	// Edge frame counts must agree across each hop.
	var bySel, bySink OperatorStats
	for _, r := range p.Operators {
		switch r.Name {
		case "select":
			bySel = r
		case "sink":
			bySink = r
		}
	}
	if bySel.FramesIn == 0 || bySel.FramesOut == 0 || bySink.FramesIn != bySel.FramesOut {
		t.Fatalf("frame counts select=%+v sink=%+v", bySel, bySink)
	}
}

func TestProfileFusedMatchesUnfused(t *testing.T) {
	const n = 1000
	unfused, _ := runProfile(t, profileTestJob(n))
	fusedJob := FuseJob(profileTestJob(n))
	if len(fusedJob.Operators) != 1 {
		t.Fatalf("chain did not fuse: %d operators", len(fusedJob.Operators))
	}
	fused, _ := runProfile(t, fusedJob)
	for i, r := range fused.Operators {
		if r.Stage != i {
			t.Fatalf("fused row %d has stage %d", i, r.Stage)
		}
	}
	fo, uo := fused.OutByName(), unfused.OutByName()
	fi, ui := fused.InByName(), unfused.InByName()
	for _, name := range []string{"source", "select", "sink"} {
		if fo[name] != uo[name] {
			t.Errorf("%s: fused out %d != unfused out %d", name, fo[name], uo[name])
		}
		if fi[name] != ui[name] {
			t.Errorf("%s: fused in %d != unfused in %d", name, fi[name], ui[name])
		}
	}
}

func TestProfileDisabledIsNil(t *testing.T) {
	job := profileTestJob(10)
	job.Profile = false
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if cur.Profile() != nil {
		t.Fatal("Profile() non-nil on an unprofiled job")
	}
}

func TestProfileNilBeforeDone(t *testing.T) {
	job := profileTestJob(10)
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// The job may still be running; Profile must not block or race.
	_ = cur.Profile()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if cur.Profile() == nil {
		t.Fatal("Profile() nil after Close")
	}
}

func TestProfileSpillAttribution(t *testing.T) {
	const n = 500
	mgr := runfile.NewManager(t.TempDir(), 2048)
	job := &Job{Profile: true, Spill: mgr}
	src := job.Add(&SourceOp{
		Label:      "source",
		Partitions: 1,
		Produce: func(_ int, emit func(Tuple) bool) error {
			for i := n; i > 0; i-- {
				if !emit(Tuple{adm.Int64(i)}) {
					return nil
				}
			}
			return nil
		},
	})
	sort := job.Add(&SortOp{
		Label:      "sort",
		Partitions: 1,
		Columns:    []int{0},
		Spill:      &runfile.Budget{M: mgr, PerInstance: 512, Obs: &runfile.SpillObserver{}},
	})
	job.Connect(src, sort, Connector{Kind: OneToOne})

	p, rows := runProfile(t, job)
	if rows != n {
		t.Fatalf("rows = %d, want %d", rows, n)
	}
	if len(p.Spill) != 1 || p.Spill[0].Name != "sort" {
		t.Fatalf("Spill rows = %+v", p.Spill)
	}
	s := p.Spill[0]
	if s.Runs == 0 || s.SpilledTuples == 0 || s.SpilledBytes == 0 || s.PeakBytes == 0 {
		t.Fatalf("sort spill counters not populated: %+v", s)
	}
	if p.JobSpill == nil || p.JobSpill.RunsCreated < int(s.Runs) {
		t.Fatalf("job spill %+v inconsistent with operator spill %+v", p.JobSpill, s)
	}
	if p.JobSpill.LiveRuns != 0 {
		t.Fatalf("job finished with %d live runs", p.JobSpill.LiveRuns)
	}
}

func TestMergeProfiles(t *testing.T) {
	a := &JobProfile{
		Operators: []OperatorStats{{Op: 0, Stage: -1, Name: "scan", Partition: 0, TuplesOut: 3, Node: "nc1"}},
		Spill:     []OperatorSpill{{Op: 1, Name: "sort", Node: "nc1", SpillStats: runfile.SpillStats{Runs: 2, SpilledBytes: 100, PeakBytes: 40}}},
		JobSpill:  &runfile.Stats{RunsCreated: 2, BytesSpilled: 100, PeakResident: 40},
	}
	b := &JobProfile{
		Operators: []OperatorStats{{Op: 0, Stage: -1, Name: "scan", Partition: 1, TuplesOut: 4, Node: "nc0"}},
		JobSpill:  &runfile.Stats{RunsCreated: 1, BytesSpilled: 50, PeakResident: 70},
	}
	m := MergeProfiles([]*JobProfile{a, nil, b})
	if m.OutByName()["scan"] != 7 {
		t.Fatalf("merged OutByName = %v", m.OutByName())
	}
	// Canonical order: partition 0 (nc1) before partition 1 (nc0).
	if m.Operators[0].Partition != 0 || m.Operators[1].Partition != 1 {
		t.Fatalf("merged rows out of order: %+v", m.Operators)
	}
	if m.JobSpill.RunsCreated != 3 || m.JobSpill.BytesSpilled != 150 || m.JobSpill.PeakResident != 70 {
		t.Fatalf("merged job spill = %+v", m.JobSpill)
	}
	if len(m.Spill) != 1 || m.Spill[0].Node != "nc1" {
		t.Fatalf("merged spill rows = %+v", m.Spill)
	}
	if MergeProfiles([]*JobProfile{nil, nil}) != nil {
		t.Fatal("MergeProfiles of all-nil parts should be nil")
	}
}
