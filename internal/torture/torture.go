// Package torture is the crash-recovery torture harness: a child process
// runs a deterministic, seeded workload against a storage.Manager with every
// index kind attached and SIGKILLs itself at a randomized durability event
// (WAL append/sync, flush, merge install, checkpoint, atomic rename — see
// internal/crashpoint). The driver then reopens the directory in-process,
// runs recovery, and asserts the surviving state is exactly the acknowledged
// writes — statements of one record and inserts of many that span both
// partitions: no lost acks, no resurrected deletes, no index/primary divergence,
// no torn components, no leftover temp files, and a replay bounded by the
// checkpoint interval.
package torture

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/crashpoint"
	"asterixdb/internal/invidx"
	"asterixdb/internal/lsm"
	"asterixdb/internal/storage"
)

// Config describes one torture workload; the driver and the child must use
// identical values so the driver can regenerate the child's operations.
type Config struct {
	Dir             string
	Seed            int64
	Ops             int
	CheckpointEvery int
}

// Env var names the driver uses to pass Config to the re-exec'd child.
const (
	EnvChild = "ASTERIX_TORTURE_CHILD"
	EnvDir   = "ASTERIX_TORTURE_DIR"
	EnvSeed  = "ASTERIX_TORTURE_SEED"
	EnvOps   = "ASTERIX_TORTURE_OPS"
	EnvCkpt  = "ASTERIX_TORTURE_CKPT"
)

// ConfigFromEnv rebuilds the child's Config from the environment.
func ConfigFromEnv() Config {
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	seed, _ := strconv.ParseInt(os.Getenv(EnvSeed), 10, 64)
	return Config{
		Dir:             os.Getenv(EnvDir),
		Seed:            seed,
		Ops:             atoi(os.Getenv(EnvOps)),
		CheckpointEvery: atoi(os.Getenv(EnvCkpt)),
	}
}

func (c Config) env() []string {
	return []string{
		EnvChild + "=1",
		EnvDir + "=" + c.Dir,
		EnvSeed + "=" + strconv.FormatInt(c.Seed, 10),
		EnvOps + "=" + strconv.Itoa(c.Ops),
		EnvCkpt + "=" + strconv.Itoa(c.CheckpointEvery),
	}
}

// Op is one record operation of the workload: an insert (upsert) of a
// record, or a delete of a key.
type Op struct {
	Delete bool
	ID     int64
	Val    int64
	X, Y   float64
	Text   string
	Name   string
}

// Statement is one statement of the workload: a single Op, or an insert of
// several records at once (every Op an insert), which is one InsertBatch.
type Statement []Op

// idSpace keeps keys colliding often, so upserts and deletes of live records
// (the interesting antimatter cases) happen constantly.
const idSpace = 48

// bigBatch is the record count of the workload's largest inserts: past two
// storage groups of 64 records, so the partitions apply their shares of it
// on goroutines of their own.
const bigBatch = 130

var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
}

// Statements deterministically expands a seed into the workload's
// statements: mostly single-record inserts and deletes, one in ten an insert
// of 2-12 records and one in fifty of bigBatch records, keys repeating
// within a batch as they do across statements. The driver calls it to
// reconstruct exactly what the child was doing.
func Statements(seed int64, n int) []Statement {
	rng := rand.New(rand.NewSource(seed))
	insert := func() Op {
		return Op{
			ID:   int64(rng.Intn(idSpace)),
			Val:  int64(rng.Intn(1000)),
			X:    float64(rng.Intn(100)),
			Y:    float64(rng.Intn(100)),
			Text: words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))],
			Name: words[rng.Intn(len(words))] + words[rng.Intn(len(words))],
		}
	}
	stmts := make([]Statement, n)
	for i := range stmts {
		records := 1
		switch r := rng.Intn(100); {
		case r < 25:
			stmts[i] = Statement{{Delete: true, ID: int64(rng.Intn(idSpace))}}
			continue
		case r < 35:
			records = 2 + rng.Intn(11)
		case r < 37:
			records = bigBatch
		}
		for range records {
			stmts[i] = append(stmts[i], insert())
		}
	}
	return stmts
}

// apply applies one op to a live-record state.
func (op Op) apply(state map[int64]Op) {
	if op.Delete {
		delete(state, op.ID)
	} else {
		state[op.ID] = op
	}
}

// Model computes the exact live-record state after applying
// statements[0..upto].
func Model(seed int64, n, upto int) map[int64]Op {
	state := map[int64]Op{}
	for i, stmt := range Statements(seed, n) {
		if i > upto {
			break
		}
		for _, op := range stmt {
			op.apply(state)
		}
	}
	return state
}

// dataset is the torture dataset's name, and its directory under Config.Dir.
const dataset = "Torture"

func tortureType() *adm.RecordType {
	return &adm.RecordType{
		Name: "TortureType",
		Fields: []adm.FieldType{
			{Name: "id", Type: adm.Prim(adm.TagInt64)},
			{Name: "val", Type: adm.Prim(adm.TagInt64)},
			{Name: "loc", Type: adm.Prim(adm.TagPoint)},
			{Name: "text", Type: adm.Prim(adm.TagString)},
			{Name: "name", Type: adm.Prim(adm.TagString)},
		},
	}
}

func record(op Op) *adm.Record {
	return adm.NewRecord(
		adm.Field{Name: "id", Value: adm.Int64(op.ID)},
		adm.Field{Name: "val", Value: adm.Int64(op.Val)},
		adm.Field{Name: "loc", Value: adm.Point{X: op.X, Y: op.Y}},
		adm.Field{Name: "text", Value: adm.String(op.Text)},
		adm.Field{Name: "name", Value: adm.String(op.Name)},
	)
}

// open creates/reopens the torture manager with every index kind declared —
// the same DDL the child ran, which is the recovery contract (DDL is not
// journaled). A tiny memory budget keeps flushes and merges constant. On an
// error the manager is closed again.
func open(cfg Config) (*storage.Manager, *storage.Dataset, error) {
	m, err := storage.NewManager(cfg.Dir, storage.Options{
		Partitions:         2,
		Journaled:          true,
		MemBudget:          2 << 10,
		CheckpointWALBytes: -1, // checkpoints are explicit, for determinism
	})
	if err != nil {
		return nil, nil, err
	}
	ds, err := m.CreateDataset(storage.DatasetSpec{
		Name:       dataset,
		Type:       tortureType(),
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	for _, spec := range []storage.IndexSpec{
		{Name: "by_val", Fields: []string{"val"}, Kind: storage.BTreeIndex},
		{Name: "by_loc", Fields: []string{"loc"}, Kind: storage.RTreeIndex},
		{Name: "by_text", Fields: []string{"text"}, Kind: storage.KeywordIndex},
		{Name: "by_name", Fields: []string{"name"}, Kind: storage.NGramIndex, GramLength: 3},
	} {
		if _, err := ds.CreateIndex(spec); err != nil {
			m.Close()
			return nil, nil, err
		}
	}
	return m, ds, nil
}

// RunChild executes the workload, printing "ACK <i>" after each committed
// statement. If a crashpoint is armed the process dies mid-workload; if not,
// it finishes and prints "EVENTS <n>" (the total crashpoint event count, used
// by the driver to calibrate its random kill targets).
func RunChild(cfg Config, out io.Writer) error {
	m, ds, err := open(cfg)
	if err != nil {
		return err
	}
	if err := m.Recover(); err != nil {
		return err
	}
	for i, stmt := range Statements(cfg.Seed, cfg.Ops) {
		switch {
		case stmt[0].Delete:
			_, err = ds.Delete(adm.Int64(stmt[0].ID))
		case len(stmt) == 1:
			err = ds.Insert(record(stmt[0]))
		default:
			recs := make([]*adm.Record, len(stmt))
			for j, op := range stmt {
				recs[j] = record(op)
			}
			_, err = ds.InsertBatch(recs)
		}
		if err != nil {
			return fmt.Errorf("statement %d: %w", i, err)
		}
		if cfg.CheckpointEvery > 0 && (i+1)%cfg.CheckpointEvery == 0 {
			if err := m.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint after statement %d: %w", i, err)
			}
		}
		fmt.Fprintf(out, "ACK %d\n", i)
	}
	if err := m.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "EVENTS %d\n", crashpoint.Count())
	return nil
}

// maxLogRecordsPerOp is a generous ceiling on WAL records one record
// operation can produce (primary op + commit + old/new entries for four
// indexes, the ngram index contributing a couple of dozen posting keys). The
// replay-bound assertion uses it to turn "bounded log suffix" into a concrete
// number.
const maxLogRecordsPerOp = 128

// replayBound is the most log records recovery may replay when the child
// checkpoints every `every` statements: the current interval plus, if the
// kill landed mid-checkpoint, the previous one, and two statements of slack —
// counted as the record operations of the heaviest such run of statements.
func replayBound(stmts []Statement, every int) int {
	window := 2*every + 2
	most, ops := 0, 0
	for i, stmt := range stmts {
		ops += len(stmt)
		if i >= window {
			ops -= len(stmts[i-window])
		}
		most = max(most, ops)
	}
	return most * maxLogRecordsPerOp
}

// Verify reopens the torture directory, recovers, and checks every
// durability property. lastAck is the highest ACKed statement index (-1 if
// none); completed means the child exited cleanly. Statement lastAck+1 may
// have committed some of its records before the kill landed — each record is
// its own transaction — so each key it writes may hold its acknowledged
// state or any version that statement wrote.
func Verify(cfg Config, lastAck int, completed bool) error {
	m, ds, err := open(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer m.Close() // error paths; the success path checks Close below
	if err := m.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	// Bounded replay: a checkpoint every CheckpointEvery ops compacts the
	// WAL, so recovery must never replay more than about two intervals (the
	// current one plus, if the kill landed mid-checkpoint, the previous one).
	stats := m.Stats()
	stmts := Statements(cfg.Seed, cfg.Ops)
	if cfg.CheckpointEvery > 0 {
		bound := replayBound(stmts, cfg.CheckpointEvery)
		if stats.Recovery.Replayed > bound {
			return fmt.Errorf("recovery replayed %d records, want <= %d (checkpoint every %d statements did not bound the log suffix)",
				stats.Recovery.Replayed, bound, cfg.CheckpointEvery)
		}
	}

	// Recovered primary state must be exactly the acknowledged writes
	// (modulo the one statement that may have committed without its ack).
	got := map[int64]Op{}
	err = ds.Scan(func(rec *adm.Record) bool {
		op := Op{
			ID:  int64(rec.Get("id").(adm.Int64)),
			Val: int64(rec.Get("val").(adm.Int64)),
		}
		pt := rec.Get("loc").(adm.Point)
		op.X, op.Y = pt.X, pt.Y
		op.Text = string(rec.Get("text").(adm.String))
		op.Name = string(rec.Get("name").(adm.String))
		got[op.ID] = op
		return true
	})
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	var pending Statement
	if !completed && lastAck+1 < cfg.Ops {
		pending = stmts[lastAck+1]
	}
	if diff := diffStates(got, Model(cfg.Seed, cfg.Ops, lastAck), pending); diff != "" {
		return fmt.Errorf("recovered state matches no acknowledged prefix (lastAck=%d): %s", lastAck, diff)
	}

	if err := verifyIndexes(ds, got); err != nil {
		return err
	}
	// Close before walking the directory: Recover ends by scheduling
	// over-budget flushes, and a background flush's component legitimately
	// exists as *.lsm.tmp until Close has drained the scheduler.
	if err := m.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return verifyNoTempFiles(cfg.Dir)
}

// diffStates describes the first difference between the recovered state
// and want, the state the acknowledged statements leave, where each key the
// pending statement writes may instead hold any state that statement gave it
// on the way; it returns "" when there is none.
func diffStates(got, want map[int64]Op, pending Statement) string {
	allowed := map[int64][]map[int64]Op{}
	state := maps.Clone(want)
	for _, op := range pending {
		op.apply(state)
		allowed[op.ID] = append(allowed[op.ID], maps.Clone(state))
	}
	same := func(a, b map[int64]Op, id int64) bool {
		x, inA := a[id]
		y, inB := b[id]
		return inA == inB && x == y
	}
	ids := map[int64]bool{}
	for id := range want {
		ids[id] = true
	}
	for id := range got {
		ids[id] = true
	}
	for id := range ids {
		if same(got, want, id) || slices.ContainsFunc(allowed[id], func(s map[int64]Op) bool { return same(got, s, id) }) {
			continue
		}
		g, inGot := got[id]
		w, inWant := want[id]
		switch {
		case !inGot:
			return fmt.Sprintf("id %d lost (acknowledged write missing)", id)
		case !inWant:
			return fmt.Sprintf("id %d present but was deleted/never acknowledged", id)
		}
		return fmt.Sprintf("id %d = %+v, want %+v", id, g, w)
	}
	return ""
}

// verifyIndexes cross-checks every secondary access path against the
// recovered primary state: each index must return exactly the records a full
// scan predicate produces. This is where a crash that left an index behind
// (or ahead of) the primary shows up.
func verifyIndexes(ds *storage.Dataset, state map[int64]Op) error {
	ids := func(recs []*adm.Record) map[int64]bool {
		set := map[int64]bool{}
		for _, r := range recs {
			set[int64(r.Get("id").(adm.Int64))] = true
		}
		return set
	}
	check := func(index string, gotSet map[int64]bool, match func(Op) bool) error {
		for id, op := range state {
			if match(op) && !gotSet[id] {
				return fmt.Errorf("index %s lost id %d (%+v)", index, id, op)
			}
		}
		for id := range gotSet {
			op, live := state[id]
			if !live {
				return fmt.Errorf("index %s returned deleted id %d", index, id)
			}
			if !match(op) {
				return fmt.Errorf("index %s returned id %d (%+v) which does not match", index, id, op)
			}
		}
		return nil
	}

	// B+-tree: a bounded range probe.
	lo, hi := int64(250), int64(750)
	recs, err := ds.SearchSecondaryRange("by_val", adm.Int64(lo), adm.Int64(hi))
	if err != nil {
		return err
	}
	if err := check("by_val", ids(recs), func(op Op) bool { return op.Val >= lo && op.Val <= hi }); err != nil {
		return err
	}

	// R-tree: a window probe (points intersect iff inside the window).
	win := adm.Rectangle{LowerLeft: adm.Point{X: 20, Y: 20}, UpperRight: adm.Point{X: 70, Y: 70}}
	recs, err = ds.SearchSecondaryRTree("by_loc", win)
	if err != nil {
		return err
	}
	inWin := func(op Op) bool {
		return op.X >= win.LowerLeft.X && op.X <= win.UpperRight.X && op.Y >= win.LowerLeft.Y && op.Y <= win.UpperRight.Y
	}
	if err := check("by_loc", ids(recs), inWin); err != nil {
		return err
	}

	// Keyword: probe every vocabulary word; matches are records whose text
	// contains the word as a token.
	for _, w := range words {
		recs, err = ds.SearchSecondaryInverted("by_text", w, 0)
		if err != nil {
			return err
		}
		word := w
		hasTok := func(op Op) bool {
			for _, tok := range strings.Fields(op.Text) {
				if tok == word {
					return true
				}
			}
			return false
		}
		if err := check("by_text:"+w, ids(recs), hasTok); err != nil {
			return err
		}
	}

	// N-gram: a T-occurrence probe. The oracle replicates the index's exact
	// candidate semantics — count how many of the probe's grams (duplicates
	// included) appear among the record's distinct grams.
	tokenize := invidx.NGramTokenizer(3)
	probe := words[0] + words[1]
	const minMatches = 4
	recs, err = ds.SearchSecondaryInverted("by_name", probe, minMatches)
	if err != nil {
		return err
	}
	probeGrams := tokenize(probe)
	gramMatch := func(op Op) bool {
		have := map[string]bool{}
		for _, g := range tokenize(op.Name) {
			have[g] = true
		}
		n := 0
		for _, g := range probeGrams {
			if have[g] {
				n++
			}
		}
		return n >= minMatches
	}
	return check("by_name", ids(recs), gramMatch)
}

// verifyDamageRefused plants an undecodable record in a primary component
// of a verified torture directory: it rewrites one stored record in place and
// recomputes the component's checksum, so only the check of every record at
// load can notice. Reopening must fail with the typed error naming that
// component and leave it on disk; once the original bytes are restored the
// directory must reopen, recover and pass Verify again. It reports false,
// and checks nothing, when no primary component holds a record the workload
// wrote (the child died before its first flush).
func verifyDamageRefused(cfg Config, lastAck int, completed bool) (bool, error) {
	path, image, at, err := findStoredRecord(cfg)
	if err != nil || path == "" {
		return false, err
	}
	damaged := bytes.Clone(image)
	damaged[at+1] = 7 // the first declared field's presence byte
	if err := lsm.Reseal(damaged); err != nil {
		return false, err
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		return false, err
	}
	m, _, err := open(cfg)
	if err == nil {
		m.Close()
		return true, fmt.Errorf("reopen over an undecodable record in %s succeeded", path)
	}
	var ce *lsm.ComponentError
	if !errors.As(err, &ce) || ce.Path != path {
		return true, fmt.Errorf("reopen over an undecodable record in %s: error is not a component error naming it: %w", path, err)
	}
	if _, err := os.Stat(path); err != nil {
		return true, fmt.Errorf("damaged component %s was removed: %w", path, err)
	}
	if err := os.WriteFile(path, image, 0o644); err != nil {
		return true, err
	}
	if err := Verify(cfg, lastAck, completed); err != nil {
		return true, fmt.Errorf("after restoring %s: %w", path, err)
	}
	return true, nil
}

// findStoredRecord returns the first primary component file holding the
// stored encoding of a record the workload wrote, its image, and the
// record's offset in it; path is "" when there is none.
func findStoredRecord(cfg Config) (path string, image []byte, at int, err error) {
	paths, err := filepath.Glob(filepath.Join(cfg.Dir, dataset, "partition-*", "component-*.lsm"))
	if err != nil {
		return "", nil, 0, err
	}
	ser := adm.NewSerializer(tortureType(), adm.SchemaEncoding)
	var stored [][]byte
	for _, stmt := range Statements(cfg.Seed, cfg.Ops) {
		for _, op := range stmt {
			if !op.Delete {
				enc, err := ser.Encode(nil, record(op))
				if err != nil {
					return "", nil, 0, err
				}
				stored = append(stored, enc)
			}
		}
	}
	for _, path := range paths {
		image, err := os.ReadFile(path)
		if err != nil {
			return "", nil, 0, err
		}
		for _, enc := range stored {
			if at := bytes.Index(image, enc); at >= 0 {
				return path, image, at, nil
			}
		}
	}
	return "", nil, 0, nil
}

// verifyNoTempFiles asserts the crash left no *.tmp files anywhere under the
// data directory: every component and meta file either renamed into place
// atomically or was cleaned up on reopen.
func verifyNoTempFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			return fmt.Errorf("leftover temp file after recovery: %s", path)
		}
		return nil
	})
}

// Driver orchestrates kill-&-recover cycles against a re-exec'd child.
type Driver struct {
	// Exe is the binary to exec as the child (usually os.Args[0], with the
	// child branch gated on EnvChild in TestMain or main).
	Exe  string
	Seed int64
	Ops  int
	// CheckpointEvery is the child's explicit checkpoint interval.
	CheckpointEvery int
	// Root is the scratch directory; each cycle works in a fresh subdir.
	Root string
	Logf func(format string, args ...any)
}

func (d *Driver) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Calibrate runs one uncrashed child and returns its total crashpoint event
// count, the range the random kill targets are drawn from.
func (d *Driver) Calibrate() (int, error) {
	cfg := Config{Dir: filepath.Join(d.Root, "calibrate"), Seed: d.Seed, Ops: d.Ops, CheckpointEvery: d.CheckpointEvery}
	out, err := d.spawn(cfg, 0)
	if err != nil {
		return 0, fmt.Errorf("calibration child failed: %w\n%s", err, out)
	}
	_, events, _ := parseChild(out)
	if events <= 0 {
		return 0, fmt.Errorf("calibration child reported no events:\n%s", out)
	}
	if err := Verify(cfg, d.Ops-1, true); err != nil {
		return 0, fmt.Errorf("calibration verify: %w", err)
	}
	// The uncrashed child checkpointed, so a primary component holds records.
	planted, err := verifyDamageRefused(cfg, d.Ops-1, true)
	if err != nil {
		return 0, fmt.Errorf("calibration damaged-record check: %w", err)
	}
	if !planted {
		return 0, fmt.Errorf("calibration: no primary component holds a record to damage")
	}
	return events, nil
}

// RunCycles runs n kill-&-recover cycles and returns the first failure.
func (d *Driver) RunCycles(n int) error {
	events, err := d.Calibrate()
	if err != nil {
		return err
	}
	d.logf("torture: seed=%d ops=%d ckpt-every=%d crashpoint-events=%d cycles=%d",
		d.Seed, d.Ops, d.CheckpointEvery, events, n)
	rng := rand.New(rand.NewSource(d.Seed))
	for cycle := 0; cycle < n; cycle++ {
		cfg := Config{
			Dir:             filepath.Join(d.Root, fmt.Sprintf("cycle-%d", cycle)),
			Seed:            rng.Int63(),
			Ops:             d.Ops,
			CheckpointEvery: d.CheckpointEvery,
		}
		target := 1 + rng.Intn(events)
		out, runErr := d.spawn(cfg, target)
		lastAck, _, sawEvents := parseChild(out)
		completed := runErr == nil && sawEvents
		if runErr != nil && lastAck < 0 && !bytes.Contains(out, []byte("ACK")) && !killedBySignal(runErr) {
			// The child failed outright before doing any work — a harness
			// bug, not a crash under test.
			return fmt.Errorf("cycle %d (seed=%d target=%d): child error: %w\n%s", cycle, cfg.Seed, target, runErr, out)
		}
		if err := Verify(cfg, lastAck, completed); err != nil {
			return fmt.Errorf("cycle %d (seed=%d target=%d acked=%d): %w", cycle, cfg.Seed, target, lastAck, err)
		}
		planted, err := verifyDamageRefused(cfg, lastAck, completed)
		if err != nil {
			return fmt.Errorf("cycle %d (seed=%d target=%d acked=%d): damaged record: %w", cycle, cfg.Seed, target, lastAck, err)
		}
		d.logf("torture: cycle=%d seed=%d target=%d acked=%d killed=%v damaged-record=%v", cycle, cfg.Seed, target, lastAck, !completed, planted)
		os.RemoveAll(cfg.Dir)
	}
	return nil
}

func (d *Driver) spawn(cfg Config, crashTarget int) ([]byte, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(d.Exe)
	cmd.Env = append(os.Environ(), cfg.env()...)
	if crashTarget > 0 {
		cmd.Env = append(cmd.Env, crashpoint.EnvVar+"="+strconv.Itoa(crashTarget))
	}
	return cmd.CombinedOutput()
}

func killedBySignal(err error) bool {
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		return false
	}
	return exitErr.ExitCode() == -1 // terminated by signal (SIGKILL)
}

// parseChild extracts the highest ACKed op index and the EVENTS total from a
// child's output. lastAck is -1 when nothing was acknowledged.
func parseChild(out []byte) (lastAck, events int, sawEvents bool) {
	lastAck = -1
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if n, ok := strings.CutPrefix(line, "ACK "); ok {
			if v, err := strconv.Atoi(n); err == nil && v > lastAck {
				lastAck = v
			}
		} else if n, ok := strings.CutPrefix(line, "EVENTS "); ok {
			if v, err := strconv.Atoi(n); err == nil {
				events = v
				sawEvents = true
			}
		}
	}
	return lastAck, events, sawEvents
}
