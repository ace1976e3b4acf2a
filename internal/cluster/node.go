package cluster

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"asterixdb"
	"asterixdb/internal/algebra"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/metrics"
)

// NodeConfig configures one node controller process.
type NodeConfig struct {
	// Name identifies the node; the cluster's placement is defined over the
	// SORTED node names, so names must be unique and stable.
	Name string
	// CCAddr is the coordinator's control-plane address to register with.
	CCAddr string
	// DataAddr is the address the node's data-plane listener binds
	// (host:0 picks a free port; the chosen address is sent to the CC).
	DataAddr string
	// DataDir roots this node's local LSM storage.
	DataDir string
	// Partitions is the cluster-wide storage partition count; it must match
	// the coordinator's.
	Partitions int
	// MemoryBudget is the memory budget each job and the handle table get
	// whole (see asterixdb.Config).
	MemoryBudget int64
	// HeartbeatTimeout bounds silence on the control connection before the
	// coordinator is considered dead (default 15s).
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds every data- and control-plane write (default 10s).
	WriteTimeout time.Duration
}

// Node is one node controller: it registers with the coordinator, owns the
// storage partitions its sorted rank maps to, runs the operator instances
// placed on it, exchanges frames with peer nodes over TCP, and streams its
// sink output back to the coordinator.
type Node struct {
	cfg  NodeConfig
	inst *asterixdb.Instance
	ctrl *ctrlConn

	dataLn net.Listener
	nodes  []nodeInfo // sorted; fixed at cluster formation
	ccData string     // coordinator's data-plane address (result streams)
	self   int        // this node's sorted rank
	pl     placement

	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*jobRun
	wg   sync.WaitGroup // job executors and data handlers
}

// NewNode validates the config and returns an unstarted node; Run does the
// actual registration and serving.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" || cfg.CCAddr == "" {
		return nil, &asterixdb.Error{Code: asterixdb.CodeInvalid, Message: "cluster: node needs a name and a coordinator address"}
	}
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 15 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	return &Node{cfg: cfg, jobs: map[string]*jobRun{}}, nil
}

// Instance returns the node's local asterixdb instance (nil before the
// cluster has formed).
func (n *Node) Instance() *asterixdb.Instance { return n.inst }

// RegisterMetrics adds the node's engine gauges and its active-job count to
// r; the asterixnc daemon serves them on its own /metrics listener. Lazy
// instance lookup tolerates scrapes before cluster formation.
func (n *Node) RegisterMetrics(r *metrics.Registry) {
	asterixdb.RegisterInstanceMetrics(r, n.Instance)
	r.GaugeFunc("asterix_cluster_jobs_active",
		"Job slices currently running on this node.",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return float64(len(n.jobs))
		})
}

// Run registers with the coordinator, waits for cluster formation, opens the
// node's partition-owning storage instance, and serves control messages and
// peer data connections until ctx is cancelled or the coordinator connection
// dies. It always returns a non-nil error describing why it stopped.
func (n *Node) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n.ctx, n.cancel = context.WithCancel(ctx)
	defer n.cancel()

	ln, err := net.Listen("tcp", n.cfg.DataAddr)
	if err != nil {
		return err
	}
	n.dataLn = ln
	defer ln.Close()

	conn, err := net.Dial("tcp", n.cfg.CCAddr)
	if err != nil {
		return err
	}
	n.ctrl = newCtrlConn(conn, n.cfg.WriteTimeout)
	defer n.ctrl.Close()

	// Cancellation unblocks the reads below by closing the sockets.
	go func() {
		<-n.ctx.Done()
		n.ctrl.Close()
		ln.Close()
	}()

	if err := n.ctrl.write(ctrlMsg{
		Type: msgRegister, Node: n.cfg.Name,
		DataAddr: ln.Addr().String(), Partitions: n.cfg.Partitions,
	}); err != nil {
		return err
	}
	// Wait for the ready broadcast (the coordinator may be waiting for other
	// nodes; pings keep the read deadline honest in the meantime).
	var ready ctrlMsg
	for {
		m, err := n.ctrl.read(n.cfg.HeartbeatTimeout)
		if err != nil {
			return unavailablef("cluster: node %s: coordinator lost before formation: %v", n.cfg.Name, err)
		}
		if m.Type == msgPing {
			if err := n.ctrl.write(ctrlMsg{Type: msgPong, Node: n.cfg.Name}); err != nil {
				return err
			}
			continue
		}
		if m.Type == msgReady {
			ready = m
			break
		}
	}
	n.nodes = append([]nodeInfo(nil), ready.Nodes...)
	sort.Slice(n.nodes, func(i, j int) bool { return n.nodes[i].Name < n.nodes[j].Name })
	n.ccData = ready.DataAddr
	n.self = -1
	for i, ni := range n.nodes {
		if ni.Name == n.cfg.Name {
			n.self = i
		}
	}
	if n.self < 0 {
		return unavailablef("cluster: node %s missing from formation broadcast", n.cfg.Name)
	}
	n.pl = placement{nodes: len(n.nodes)}
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:       n.cfg.DataDir,
		Partitions:    n.cfg.Partitions,
		MemoryBudget:  n.cfg.MemoryBudget,
		OwnsPartition: func(p int) bool { return n.pl.nodeOf(p) == n.self },
	})
	if err != nil {
		return err
	}
	n.inst = inst
	defer inst.Close()

	go n.acceptData()

	err = n.controlLoop()
	n.cancel()
	n.failAllJobs(unavailablef("cluster: node %s shutting down: %v", n.cfg.Name, err))
	n.wg.Wait()
	return err
}

// controlLoop serves coordinator messages until the connection dies.
func (n *Node) controlLoop() error {
	for {
		m, err := n.ctrl.read(n.cfg.HeartbeatTimeout)
		if err != nil {
			return unavailablef("cluster: node %s: coordinator connection lost: %v", n.cfg.Name, err)
		}
		switch m.Type {
		case msgPing:
			if err := n.ctrl.write(ctrlMsg{Type: msgPong, Node: n.cfg.Name}); err != nil {
				return err
			}
		case msgJob:
			n.wg.Add(1)
			go func(m ctrlMsg) {
				defer n.wg.Done()
				_ = n.ctrl.write(n.prepare(m))
			}(m)
		case msgGo:
			if jr := n.lookupJob(m.ID); jr != nil {
				jr.launched = true
				n.wg.Add(1)
				go func() {
					defer n.wg.Done()
					n.executeJob(jr)
				}()
			}
		case msgCancel:
			if jr := n.lookupJob(m.ID); jr != nil {
				err := m.Err.Err()
				if err == nil {
					err = context.Canceled
				}
				jr.fail(err)
				if !jr.launched {
					// Cancelled before go: no executor will ever drop it.
					n.dropJob(m.ID)
				}
			}
		}
	}
}

// prepare runs one job message: the request's prelude on this node's slice,
// then, if the request ends in a query, its compile and the registration of
// the run that go and peer data connections look up. The ack carries the
// prelude's DML count, or the job's shape for the controller to compare with
// its own. Profile turns on per-operator instrumentation for this slice.
func (n *Node) prepare(m ctrlMsg) ctrlMsg {
	ack := ctrlMsg{Type: msgJobAck, ID: m.ID, Node: n.cfg.Name}
	req, q, res, err := n.inst.ExecuteForQuery(n.ctx, m.Src)
	if err == nil && q == nil {
		ack.Count = res.Count
	} else if err == nil {
		// Default optimizer options on every node, as on the controller:
		// identical options are part of what makes the jobs identical.
		var job *hyracks.Job
		if _, job, err = req.CompileQuery(q, algebra.Options{}); err == nil {
			job.Profile = m.Profile
			ack.Shape = jobShape(job)
			jr := &jobRun{
				id:      m.ID,
				node:    n,
				job:     job,
				started: make(chan struct{}),
				done:    make(chan struct{}),
				conns:   map[connKey]*dataConn{},
			}
			n.mu.Lock()
			n.jobs[m.ID] = jr
			n.mu.Unlock()
		}
	}
	ack.Err = toWireError(err)
	return ack
}

func (n *Node) lookupJob(id string) *jobRun {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jobs[id]
}

func (n *Node) dropJob(id string) {
	n.mu.Lock()
	delete(n.jobs, id)
	n.mu.Unlock()
}

func (n *Node) failAllJobs(err error) {
	n.mu.Lock()
	jobs := make([]*jobRun, 0, len(n.jobs))
	for _, jr := range n.jobs {
		jobs = append(jobs, jr)
	}
	n.mu.Unlock()
	for _, jr := range jobs {
		jr.fail(err)
	}
}

// executeJob runs the node's slice of a prepared job and streams its sink
// frames to the coordinator, followed by a completion record carrying the
// job's terminal error (nil on success). Every path closes the job's data
// connections and unregisters the run.
func (n *Node) executeJob(jr *jobRun) {
	defer close(jr.done)
	defer n.dropJob(jr.id)
	defer jr.closeConns()

	spec := &hyracks.DistSpec{
		Local:   func(op, p int) bool { return n.pl.nodeOf(p) == n.self },
		Send:    jr.send,
		SendEOS: jr.sendEOS,
	}
	cur, run, err := hyracks.ExecuteStreamDist(n.ctx, jr.job, spec)
	if err != nil {
		close(jr.started)
		jr.reportDone(err)
		return
	}
	jr.setRun(run)

	for {
		f, ok := cur.NextFrame()
		if !ok {
			break
		}
		rc, err := jr.resultConn()
		if err != nil {
			cur.Close()
			jr.reportDone(err)
			return
		}
		if err := rc.writeFrame(uint64(f.Op), uint64(f.Partition), f.Tuples, n.cfg.WriteTimeout); err != nil {
			// The coordinator stopped listening (consumer closed the stream
			// or the CC died); tear the job down.
			jr.fail(err)
			cur.Close()
			jr.reportDone(err)
			return
		}
	}
	err = cur.Close()
	if cerr := jr.cancelReason(); cerr != nil {
		// Cancellation may surface as a bare context error on the cursor;
		// report the typed reason the coordinator sent instead.
		err = cerr
	}
	if err == nil && jr.job.Profile {
		// Ship this slice's profile ahead of the completion record on the
		// same connection, so the coordinator has it before it counts the
		// node done.
		jr.shipProfile(cur.Profile())
	}
	jr.reportDone(err)
}

// shipProfile stamps the node's name onto its slice profile and sends it to
// the coordinator; best-effort — a send failure is covered by the
// completion-record path that follows.
func (jr *jobRun) shipProfile(p *hyracks.JobProfile) {
	if p == nil {
		return
	}
	p.SetNode(jr.node.cfg.Name)
	rc, err := jr.resultConn()
	if err != nil {
		return
	}
	_ = rc.write(recProfile, mustJSON(p), jr.node.cfg.WriteTimeout)
}

// acceptData serves the node's data-plane listener: peer nodes dial one
// connection per (job, edge) pair they ship frames to us on.
func (n *Node) acceptData() {
	for {
		conn, err := n.dataLn.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleData(conn)
		}()
	}
}

// handleData drains one inbound edge connection, injecting its frames and
// end-of-stream records into the job's local run. A decode failure or an
// inject on corrupt coordinates fails the job with a typed error — never a
// panic. The loop uses short read deadlines so the handler exits promptly
// once the job is done even if the peer never closes the connection.
func (n *Node) handleData(conn net.Conn) {
	defer conn.Close()
	br := newDataReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(n.cfg.HeartbeatTimeout))
	h, err := readHandshake(br)
	if err != nil {
		return
	}
	// The run was registered before go reached the peer (see
	// Controller.submit); nil means the job has ended.
	jr := n.lookupJob(h.Job)
	if jr == nil {
		return
	}
	select {
	case <-jr.started:
	case <-jr.done:
		return
	case <-n.ctx.Done():
		return
	}
	run := jr.getRun()
	if run == nil {
		return
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		kind, a, _, payload, err := readRecord(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				select {
				case <-jr.done:
					return
				case <-n.ctx.Done():
					return
				default:
					continue
				}
			}
			// EOF: the peer closed the connection, which is the normal end of
			// an edge stream (after its final EOS record). Anything the job
			// still owed us is accounted for by the coordinator's failure
			// detection, so just exit.
			return
		}
		switch kind {
		case recFrame:
			tuples, derr := decodeTuples(payload)
			if derr != nil {
				run.Fail(derr)
				return
			}
			if err := run.Inject(h.Edge, int(a), tuples); err != nil {
				run.Fail(&asterixdb.Error{Code: asterixdb.CodeInvalid, Message: err.Error()})
				return
			}
		case recEOS:
			if err := run.InjectEOS(h.Edge); err != nil {
				run.Fail(&asterixdb.Error{Code: asterixdb.CodeInvalid, Message: err.Error()})
				return
			}
		default:
			run.Fail(corruptf("cluster: unexpected record kind %d on edge connection", kind))
			return
		}
	}
}

// ----------------------------------------------------------------------------
// jobRun: one job's per-node execution state
// ----------------------------------------------------------------------------

type connKey struct {
	edge int // index in job.Edges; -1 for the result stream to the CC
	node int // target node rank; -1 for the coordinator
}

type jobRun struct {
	id      string
	node    *Node
	job     *hyracks.Job
	started chan struct{} // closed once run is available (or startup failed)
	done    chan struct{} // closed when the executor goroutine exits
	// launched is set when go arrives; only the control loop touches it.
	launched bool

	mu        sync.Mutex
	run       *hyracks.DistRun
	cancelErr error
	conns     map[connKey]*dataConn
	reported  bool
}

// setRun publishes the DistRun to data handlers; a cancel that arrived
// before the job started is applied immediately.
func (jr *jobRun) setRun(run *hyracks.DistRun) {
	jr.mu.Lock()
	jr.run = run
	cancelErr := jr.cancelErr
	jr.mu.Unlock()
	close(jr.started)
	if cancelErr != nil {
		run.Fail(cancelErr)
	}
}

func (jr *jobRun) getRun() *hyracks.DistRun {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.run
}

// fail aborts the job: the first reason wins and is surfaced through the
// run's failure signal (which unblocks every consumer and producer).
func (jr *jobRun) fail(err error) {
	jr.mu.Lock()
	if jr.cancelErr == nil {
		jr.cancelErr = err
	}
	run := jr.run
	jr.mu.Unlock()
	if run != nil {
		run.Fail(err)
	}
}

func (jr *jobRun) cancelReason() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.cancelErr
}

// conn returns the (lazily dialed) data connection for one edge and target
// node; edge -1 / node -1 addresses the coordinator's result stream.
func (jr *jobRun) conn(key connKey) (*dataConn, error) {
	jr.mu.Lock()
	if dc, ok := jr.conns[key]; ok {
		jr.mu.Unlock()
		return dc, nil
	}
	jr.mu.Unlock()
	addr := jr.node.ccData
	if key.node >= 0 {
		addr = jr.node.nodes[key.node].DataAddr
	}
	c, err := net.DialTimeout("tcp", addr, jr.node.cfg.WriteTimeout)
	if err != nil {
		return nil, unavailablef("cluster: node %s: dialing %s for job %s: %v", jr.node.cfg.Name, addr, jr.id, err)
	}
	dc := &dataConn{conn: c}
	if err := dc.writeHandshake(dataHandshake{Job: jr.id, From: jr.node.cfg.Name, Edge: key.edge}, jr.node.cfg.WriteTimeout); err != nil {
		c.Close()
		return nil, err
	}
	jr.mu.Lock()
	if existing, ok := jr.conns[key]; ok {
		// Another producer instance won the race; keep its connection.
		jr.mu.Unlock()
		c.Close()
		return existing, nil
	}
	jr.conns[key] = dc
	jr.mu.Unlock()
	return dc, nil
}

func (jr *jobRun) resultConn() (*dataConn, error) {
	return jr.conn(connKey{edge: -1, node: -1})
}

func (jr *jobRun) closeConns() {
	jr.mu.Lock()
	conns := make([]*dataConn, 0, len(jr.conns))
	for _, dc := range jr.conns {
		conns = append(conns, dc)
	}
	jr.conns = map[connKey]*dataConn{}
	jr.mu.Unlock()
	for _, dc := range conns {
		dc.conn.Close()
	}
}

// send implements DistSpec.Send: serialize one frame to the node running the
// target consumer instance.
func (jr *jobRun) send(edge, toPart int, tuples []hyracks.Tuple) error {
	dc, err := jr.conn(connKey{edge: edge, node: jr.node.pl.nodeOf(toPart)})
	if err != nil {
		return err
	}
	return dc.writeFrame(uint64(toPart), 0, tuples, jr.node.cfg.WriteTimeout)
}

// sendEOS implements DistSpec.SendEOS: announce a finished producer instance
// to every remote node holding consumer instances it could target. The
// routing mirrors the runtime's remote-producer accounting exactly — M:N
// connectors reach every consumer-holding node, partition-preserving
// connectors only the node owning instance fromPart % consumerParallelism.
func (jr *jobRun) sendEOS(edge, fromPart int) error {
	e := jr.job.Edges[edge]
	consPar := jr.job.Operators[e.To].Parallelism()
	targets := make([]int, 0, len(jr.node.nodes))
	if e.Connector.Kind.ReachesAll() {
		for t := range jr.node.nodes {
			if t != jr.node.self && jr.node.pl.hasInstance(t, consPar) {
				targets = append(targets, t)
			}
		}
	} else if t := jr.node.pl.nodeOf(fromPart % consPar); t != jr.node.self {
		targets = append(targets, t)
	}
	var firstErr error
	for _, t := range targets {
		dc, err := jr.conn(connKey{edge: edge, node: t})
		if err == nil {
			err = dc.write(recEOS, nil, jr.node.cfg.WriteTimeout)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reportDone sends the job's completion record to the coordinator (at most
// once).
func (jr *jobRun) reportDone(err error) {
	jr.mu.Lock()
	if jr.reported {
		jr.mu.Unlock()
		return
	}
	jr.reported = true
	jr.mu.Unlock()
	rc, cerr := jr.resultConn()
	if cerr != nil {
		return // the coordinator's failure detection covers us
	}
	var payload []byte
	if w := toWireError(err); w != nil {
		payload = mustJSON(w)
	}
	_ = rc.write(recDone, payload, jr.node.cfg.WriteTimeout)
}

// dataConn is one outbound data-plane connection: whole records are written
// under the mutex so frames from concurrent producer instances never
// interleave, and the encode buffer is reused across frames.
type dataConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func (dc *dataConn) writeHandshake(h dataHandshake, timeout time.Duration) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if err := dc.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return writeHandshake(dc.conn, h)
}

func (dc *dataConn) writeFrame(a, b uint64, tuples []hyracks.Tuple, timeout time.Duration) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	payload, err := encodeTuples(dc.buf[:0], tuples)
	if err != nil {
		return err
	}
	dc.buf = payload[:0]
	return dc.writeLocked(recFrame, a, b, payload, timeout)
}

// write sends one EOS, profile or done record.
func (dc *dataConn) write(kind byte, payload []byte, timeout time.Duration) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.writeLocked(kind, 0, 0, payload, timeout)
}

func (dc *dataConn) writeLocked(kind byte, a, b uint64, payload []byte, timeout time.Duration) error {
	if err := dc.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return writeRecord(dc.conn, kind, a, b, payload)
}
