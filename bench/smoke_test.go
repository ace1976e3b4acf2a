package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asterixdb"
	"asterixdb/internal/server"
)

// TestWorkloadsAnswerTheOracle runs the four workloads at 1/20 scale against
// an in-process server for a fraction of a second each: every statement class
// must be issued and every answer must match the oracle, and the ingest
// workload's acknowledged records must survive a reopen and Recover.
func TestWorkloadsAnswerTheOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d := newData(11, smokeScale)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Journaled: def.journaled})
			if err != nil {
				t.Fatal(err)
			}
			svc := server.New(inst, server.Options{})
			ts := httptest.NewServer(svc)
			var buf bytes.Buffer
			if _, err := post(ctx, http.DefaultClient, ts.URL+"/ddl", ddl, &buf); err != nil {
				t.Fatal(err)
			}
			for _, s := range d.preload(def.preload).stmts {
				if _, err := post(ctx, http.DefaultClient, ts.URL+"/update", s, &buf); err != nil {
					t.Fatal(err)
				}
			}
			res := &runResult{workload: def.name}
			out := drive(ctx, ts.URL, d, def.clients, 0, 400*time.Millisecond, func() {}, res)
			ts.Close()
			svc.Close()
			if err := inst.Close(); err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.errs)
			}
			classes := byClass(out.samples)
			for _, list := range def.clients {
				for _, c := range list {
					if len(classes[c]) == 0 {
						t.Errorf("no %s statement completed", c)
					}
				}
			}
			if m := endToEnd(&httpRun{driven: out, userBytes: 1}); m["class_p50_gm_ms"].Value <= 0 || m["ops_per_s"].Value <= 0 {
				t.Errorf("end-to-end metrics not positive: %+v", m)
			}
			if def.crash {
				rec, err := recoverDir(dir, def.journaled)
				if err != nil {
					t.Fatal(err)
				}
				if rec.messages != out.acked || out.acked == 0 {
					t.Fatalf("recovered %d messages, %d were acknowledged", rec.messages, out.acked)
				}
			}
		})
	}
}

// TestTracedReplayCoversTheStatement replays the lookup and analytics classes
// in-process with spans and checks that the layer spans explain the statement
// and that the traced path and the program's own path both satisfy the oracle.
func TestTracedReplayCoversTheStatement(t *testing.T) {
	ctx := context.Background()
	d := newData(12, smokeScale)
	cfg := runConfig{tmp: t.TempDir()}
	for _, name := range []string{"lookup", "analytics"} {
		def, _ := findWorkload(name)
		e, err := openEngine(cfg, def, d.preload(def.preload))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		st := d.newStream(0, 1)
		var buf []byte
		for i, c := range def.clients[0] {
			s := st.next(c)
			if buf, _, err = e.traced(ctx, tr, i+1, s, 0, buf); err != nil {
				t.Fatalf("traced %s: %v", c, err)
			}
			if buf, err = e.plain(ctx, s, buf); err != nil {
				t.Fatalf("plain %s: %v", c, err)
			}
		}
		self, roots, covered := tr.selfTimes()
		if cov := float64(covered) / float64(roots); cov < 0.9 || cov > 1 {
			t.Errorf("%s: spans cover %.3f of the statements", name, cov)
		}
		for _, layer := range []string{spanParse, spanCompile, spanJobGen, spanExecute, spanJSON} {
			if self[layer] <= 0 {
				t.Errorf("%s: no self time for %s", name, layer)
			}
		}
		e.close()
	}
}
