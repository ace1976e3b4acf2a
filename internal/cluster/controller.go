package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asterixdb"
	"asterixdb/internal/algebra"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/metrics"
)

// ControllerConfig configures the cluster controller process.
type ControllerConfig struct {
	// CtrlAddr is the control-plane listen address node controllers dial.
	CtrlAddr string
	// DataAddr is the data-plane listen address result streams dial.
	DataAddr string
	// ExpectNodes is the cluster size; queries are refused until this many
	// nodes have registered, and refused again if any of them dies.
	ExpectNodes int
	// HeartbeatInterval is the ping cadence to each node (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds silence on a node's control connection before
	// the node is declared dead (default 15s).
	HeartbeatTimeout time.Duration
	// RPCTimeout bounds every job round trip to a node and the post-cancel
	// drain of a failed job's result streams (default 30s).
	RPCTimeout time.Duration
	// WriteTimeout bounds every control-plane write (default 10s).
	WriteTimeout time.Duration
}

// Controller is the cluster controller: it owns the catalog (a local
// instance that never stores base data), runs and compiles every request on
// it first, sends each request to the node controllers as one job message,
// and gathers result frames into cursors. It implements the server.Engine
// surface, so the HTTP API fronts a cluster exactly as it fronts a single
// process.
type Controller struct {
	inst *asterixdb.Instance
	cfg  ControllerConfig

	ctrlLn net.Listener
	dataLn net.Listener

	formed chan struct{} // closed once ExpectNodes nodes registered

	// ddlMu orders each request holding DDL against every other request
	// (see prepare).
	ddlMu sync.RWMutex

	mu      sync.Mutex
	nodes   map[string]*ncPeer
	order   []nodeInfo // sorted; fixed at formation
	jobs    map[string]*gatherJob
	penders map[string]chan ctrlMsg // rpc key -> reply

	nextID     atomic.Int64
	nodeDeaths atomic.Int64 // nodes declared dead since startup (metrics)
	closed     chan struct{}
	once       sync.Once
	wg         sync.WaitGroup
}

// ncPeer is the controller's view of one registered node.
type ncPeer struct {
	name     string
	dataAddr string
	conn     *ctrlConn
	dead     chan struct{}
	deadOnce sync.Once
}

func (p *ncPeer) alive() bool {
	select {
	case <-p.dead:
		return false
	default:
		return true
	}
}

// NewController opens the catalog instance's listeners and starts serving
// registrations. inst must have been opened with an OwnsPartition that owns
// nothing — the controller's instance is the catalog replica and compile
// authority, never a data host.
func NewController(inst *asterixdb.Instance, cfg ControllerConfig) (*Controller, error) {
	if cfg.ExpectNodes <= 0 {
		return nil, &asterixdb.Error{Code: asterixdb.CodeInvalid, Message: "cluster: controller needs ExpectNodes > 0"}
	}
	if cfg.CtrlAddr == "" {
		cfg.CtrlAddr = "127.0.0.1:0"
	}
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 15 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	ctrlLn, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		return nil, err
	}
	dataLn, err := net.Listen("tcp", cfg.DataAddr)
	if err != nil {
		ctrlLn.Close()
		return nil, err
	}
	c := &Controller{
		inst:    inst,
		cfg:     cfg,
		ctrlLn:  ctrlLn,
		dataLn:  dataLn,
		formed:  make(chan struct{}),
		nodes:   map[string]*ncPeer{},
		jobs:    map[string]*gatherJob{},
		penders: map[string]chan ctrlMsg{},
		closed:  make(chan struct{}),
	}
	go c.acceptCtrl()
	go c.acceptData()
	go c.heartbeatLoop()
	return c, nil
}

// CtrlAddr returns the bound control-plane address (for host:0 configs).
func (c *Controller) CtrlAddr() string { return c.ctrlLn.Addr().String() }

// DataAddr returns the bound data-plane address.
func (c *Controller) DataAddr() string { return c.dataLn.Addr().String() }

// WaitReady blocks until the cluster has formed or the timeout elapses.
func (c *Controller) WaitReady(timeout time.Duration) error {
	select {
	case <-c.formed:
		return nil
	case <-c.closed:
		return unavailablef("cluster: controller closed before formation")
	case <-time.After(timeout):
		return unavailablef("cluster: %d nodes did not register within %v", c.cfg.ExpectNodes, timeout)
	}
}

// Close shuts the controller down: listeners and node connections close, and
// every in-flight job fails over to a typed unavailable error.
func (c *Controller) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.ctrlLn.Close()
		c.dataLn.Close()
		c.mu.Lock()
		peers := make([]*ncPeer, 0, len(c.nodes))
		for _, p := range c.nodes {
			peers = append(peers, p)
		}
		c.mu.Unlock()
		for _, p := range peers {
			p.conn.Close()
		}
		c.failJobs(nil, unavailablef("cluster: controller shutting down"))
	})
	c.wg.Wait()
	return nil
}

// Health reports nil once the cluster has formed; the controller stays
// healthy through node deaths (queries fail typed instead) so that
// monitoring can distinguish "CC down" from "cluster degraded".
func (c *Controller) Health() error {
	select {
	case <-c.formed:
		return nil
	default:
		return unavailablef("cluster: waiting for %d node(s) to register", c.missingNodes())
	}
}

func (c *Controller) missingNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.cfg.ExpectNodes - len(c.nodes)
	if n < 0 {
		n = 0
	}
	return n
}

// RegisterMetrics adds the controller's cluster-state gauges — roster,
// formation, in-flight gathers, node deaths — plus the catalog instance's
// engine gauges to r; the HTTP server calls it when building /metrics.
func (c *Controller) RegisterMetrics(r *metrics.Registry) {
	asterixdb.RegisterInstanceMetrics(r, func() *asterixdb.Instance { return c.inst })
	r.GaugeFunc("asterix_cluster_nodes_expected",
		"Configured cluster size.",
		func() float64 { return float64(c.cfg.ExpectNodes) })
	r.GaugeFunc("asterix_cluster_nodes_alive",
		"Node controllers currently registered and responding.",
		func() float64 { return float64(len(c.alivePeers())) })
	r.GaugeFunc("asterix_cluster_formed",
		"1 once every expected node has registered.",
		func() float64 {
			select {
			case <-c.formed:
				return 1
			default:
				return 0
			}
		})
	r.GaugeFunc("asterix_cluster_jobs_active",
		"Distributed jobs currently gathering results.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.jobs))
		})
	r.CounterFunc("asterix_cluster_node_deaths_total",
		"Nodes declared dead since controller start.",
		func() float64 { return float64(c.nodeDeaths.Load()) })
}

// SpillDir exposes the catalog instance's spill directory (server.Engine).
func (c *Controller) SpillDir() string { return c.inst.SpillDir() }

// MemoryBudget exposes the catalog instance's budget (server.Engine).
func (c *Controller) MemoryBudget() int64 { return c.inst.MemoryBudget() }

// Explain compiles on the controller's catalog replica (server.Engine).
func (c *Controller) Explain(src string) (string, error) { return c.inst.Explain(src) }

// ----------------------------------------------------------------------------
// cluster formation and liveness
// ----------------------------------------------------------------------------

func (c *Controller) acceptCtrl() {
	for {
		conn, err := c.ctrlLn.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleCtrl(conn)
		}()
	}
}

// handleCtrl serves one node's control connection: a register message admits
// the node, then the read loop dispatches its acks and pongs until the
// connection dies — at which point the node is declared dead and every job
// it participates in fails.
func (c *Controller) handleCtrl(conn net.Conn) {
	cc := newCtrlConn(conn, c.cfg.WriteTimeout)
	m, err := cc.read(c.cfg.HeartbeatTimeout)
	if err != nil || m.Type != msgRegister || m.Node == "" || m.DataAddr == "" {
		cc.Close()
		return
	}
	peer := &ncPeer{name: m.Node, dataAddr: m.DataAddr, conn: cc, dead: make(chan struct{})}
	if err := c.admit(peer, m.Partitions); err != nil {
		cc.Close()
		return
	}
	for {
		m, err := cc.read(c.cfg.HeartbeatTimeout)
		if err != nil {
			break
		}
		switch m.Type {
		case msgPong:
			// The read deadline reset is the liveness signal.
		case msgJobAck:
			c.mu.Lock()
			ch := c.penders[rpcKey(m.ID, peer.name)]
			c.mu.Unlock()
			if ch != nil {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
	c.nodeDied(peer)
}

// admit registers a node; the cluster forms (and the sorted order freezes)
// when the expected count is reached.
func (c *Controller) admit(peer *ncPeer, partitions int) error {
	c.mu.Lock()
	if old, ok := c.nodes[peer.name]; ok && old.alive() {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate node name %q", peer.name)
	}
	if len(c.order) > 0 {
		// Post-formation re-registration: accept only a known name at the
		// same data address, so a restarted node can rejoin its slot.
		found := false
		for i := range c.order {
			if c.order[i].Name == peer.name {
				c.order[i].DataAddr = peer.dataAddr
				found = true
			}
		}
		if !found {
			c.mu.Unlock()
			return fmt.Errorf("cluster: node %q not part of the formed cluster", peer.name)
		}
	}
	c.nodes[peer.name] = peer
	formed := len(c.order) == 0 && len(c.nodes) >= c.cfg.ExpectNodes
	if formed {
		c.order = make([]nodeInfo, 0, len(c.nodes))
		for _, p := range c.nodes {
			c.order = append(c.order, nodeInfo{Name: p.name, DataAddr: p.dataAddr})
		}
		sort.Slice(c.order, func(i, j int) bool { return c.order[i].Name < c.order[j].Name })
	}
	order := append([]nodeInfo(nil), c.order...)
	rejoining := !formed && len(order) > 0
	peers := c.alivePeersLocked()
	c.mu.Unlock()

	if formed {
		ready := ctrlMsg{Type: msgReady, Nodes: order, DataAddr: c.DataAddr()}
		for _, p := range peers {
			if err := p.conn.write(ready); err != nil {
				c.nodeDied(p)
			}
		}
		close(c.formed)
	} else if rejoining {
		// Rejoin of a formed cluster: hand the (updated) roster to the node.
		if err := peer.conn.write(ctrlMsg{Type: msgReady, Nodes: order, DataAddr: c.DataAddr()}); err != nil {
			c.nodeDied(peer)
		}
	}
	return nil
}

func (c *Controller) alivePeersLocked() []*ncPeer {
	peers := make([]*ncPeer, 0, len(c.nodes))
	for _, p := range c.nodes {
		if p.alive() {
			peers = append(peers, p)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	return peers
}

func (c *Controller) alivePeers() []*ncPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alivePeersLocked()
}

// nodeDied marks a node dead (once) and fails every job it participates in
// with a typed unavailable error, cancelling the survivors' slices.
func (c *Controller) nodeDied(peer *ncPeer) {
	peer.deadOnce.Do(func() {
		close(peer.dead)
		peer.conn.Close()
		c.nodeDeaths.Add(1)
		c.failJobs(peer, unavailablef("cluster: node %s died mid-query", peer.name))
	})
}

// failJobs fails every unfinished job (peer == nil) or every unfinished job
// the given peer had not yet completed its slice of.
func (c *Controller) failJobs(peer *ncPeer, err error) {
	c.mu.Lock()
	jobs := make([]*gatherJob, 0, len(c.jobs))
	for _, g := range c.jobs {
		jobs = append(jobs, g)
	}
	c.mu.Unlock()
	for _, g := range jobs {
		if peer != nil && g.nodeFinished(peer.name) {
			continue
		}
		c.abortJob(g, err)
		if peer != nil {
			// The dead node will never send its completion record; mark its
			// slot done so the gather finishes as soon as the survivors
			// acknowledge the cancellation instead of waiting out the backstop.
			c.nodeDone(g, peer.name, err)
		}
	}
}

func (c *Controller) heartbeatLoop() {
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
		}
		for _, p := range c.alivePeers() {
			if err := p.conn.write(ctrlMsg{Type: msgPing}); err != nil {
				c.nodeDied(p)
			}
		}
	}
}

// requireCluster returns the full live roster or a typed unavailable error:
// every statement and query needs all ExpectNodes nodes, since each owns an
// exclusive slice of the data.
func (c *Controller) requireCluster() ([]*ncPeer, error) {
	select {
	case <-c.formed:
	default:
		return nil, unavailablef("cluster: not formed yet (%d node(s) missing)", c.missingNodes())
	}
	peers := c.alivePeers()
	if len(peers) < c.cfg.ExpectNodes {
		return nil, unavailablef("cluster: %d of %d nodes are down", c.cfg.ExpectNodes-len(peers), c.cfg.ExpectNodes)
	}
	return peers, nil
}

// ----------------------------------------------------------------------------
// RPC plumbing
// ----------------------------------------------------------------------------

func rpcKey(id, node string) string { return id + "|" + node }

// rpc sends one message to one node and waits for its ack, bounded by the
// node's liveness and the RPC deadline but not by the caller: the node runs
// the message whatever becomes of the caller, so the wait is over only when
// the node is done with it.
func (c *Controller) rpc(p *ncPeer, m ctrlMsg) (ctrlMsg, error) {
	key := rpcKey(m.ID, p.name)
	ch := make(chan ctrlMsg, 1)
	c.mu.Lock()
	c.penders[key] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.penders, key)
		c.mu.Unlock()
	}()
	if err := p.conn.write(m); err != nil {
		c.nodeDied(p)
		return ctrlMsg{}, unavailablef("cluster: node %s unreachable: %v", p.name, err)
	}
	timer := time.NewTimer(c.cfg.RPCTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r, nil
	case <-p.dead:
		return ctrlMsg{}, unavailablef("cluster: node %s died during request", p.name)
	case <-timer.C:
		c.nodeDied(p)
		return ctrlMsg{}, unavailablef("cluster: node %s did not answer within %v", p.name, c.cfg.RPCTimeout)
	case <-c.closed:
		return ctrlMsg{}, unavailablef("cluster: controller shutting down")
	}
}

// broadcast runs the same RPC against every peer concurrently and returns
// the acks (indexed like peers) and the first error.
func (c *Controller) broadcast(peers []*ncPeer, m ctrlMsg) ([]ctrlMsg, error) {
	acks := make([]ctrlMsg, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *ncPeer) {
			defer wg.Done()
			acks[i], errs[i] = c.rpc(p, m)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return acks, err
		}
	}
	for i, ack := range acks {
		if err := ack.Err.Err(); err != nil {
			return acks, fmt.Errorf("cluster: node %s: %w", peers[i].name, err)
		}
	}
	return acks, nil
}

// ----------------------------------------------------------------------------
// server.Engine: the one request path
// ----------------------------------------------------------------------------

// ExecuteContext runs a request cluster-wide and returns its last statement's
// result; a trailing query's rows are drained from the gathered stream, so
// the result is the one Instance.ExecuteContext returns.
func (c *Controller) ExecuteContext(ctx context.Context, src string) (*asterixdb.Result, error) {
	cur, res, err := c.submit(ctx, src)
	if err != nil || cur == nil {
		return res, err
	}
	defer cur.Close()
	values, err := cur.Drain()
	if err != nil {
		return nil, err
	}
	return &asterixdb.Result{Kind: "query", Values: values, Count: len(values)}, nil
}

// QueryStream runs a request cluster-wide and returns a cursor over its
// trailing query's gathered result stream; a request with no trailing query
// yields an exhausted cursor.
func (c *Controller) QueryStream(ctx context.Context, src string) (*asterixdb.Cursor, error) {
	cur, _, err := c.submit(ctx, src)
	if err != nil || cur != nil {
		return cur, err
	}
	return asterixdb.NewJobCursor(ctx, nil), nil
}

// submit is the one path of a cluster request. The catalog replica runs the
// request's prelude (the statements ahead of a trailing query) and compiles
// the query, so a malformed request fails before any node sees it. Every node
// then gets one job message: it runs the same prelude on its own slice and,
// for a query, compiles and registers its run before it acks. A request
// ending in a statement returns its result with the nodes' DML counts summed;
// one ending in a query starts the job and returns the gather cursor.
//
// The order makes every lookup of a job by id exact, with no retry: the
// gather job is in c.jobs before the job message goes out, every node
// registers its run before it acks, and go goes out only after every ack.
// So a node's result connection and a peer's edge connection, both dialed
// after go, find the job unless it has already ended.
func (c *Controller) submit(ctx context.Context, src string) (*asterixdb.Cursor, *asterixdb.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	peers, err := c.requireCluster()
	if err != nil {
		return nil, nil, err
	}
	g, res, err := c.prepare(ctx, peers, src)
	if err != nil || g == nil {
		return nil, res, err
	}
	// Launch. A write failure marks the node dead, which fails the job.
	for _, p := range peers {
		if err := p.conn.write(ctrlMsg{Type: msgGo, ID: g.id}); err != nil {
			c.nodeDied(p)
		}
	}
	return asterixdb.NewJobCursor(ctx, g.cur), nil, nil
}

// prepare runs the request's prelude on the replica and has every node run
// it too, returning the prepared gather job of a trailing query (nil for a
// statement) or the statement's result.
//
// A request holding DDL holds ddlMu from the replica's apply until every node
// has acked, and every other request holds its shared side over the same
// span. So the nodes apply catalog changes in the replica's order (a
// concurrent create and drop of one index would otherwise reach a node in
// the other order), and the replica and every node compile a query against
// the same catalog, so a job-shape mismatch means a node really is out of
// step. The acks are awaited even when ctx ends, so the lock is not released
// while a node still applies DDL, and a cancel sent after them finds every
// prepared run.
func (c *Controller) prepare(ctx context.Context, peers []*ncPeer, src string) (*gatherJob, *asterixdb.Result, error) {
	stmts, err := asterixdb.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if slices.ContainsFunc(stmts, asterixdb.IsDDL) {
		c.ddlMu.Lock()
		defer c.ddlMu.Unlock()
	} else {
		c.ddlMu.RLock()
		defer c.ddlMu.RUnlock()
	}
	req, q, res, err := c.inst.ExecuteStatements(ctx, stmts)
	if err != nil {
		return nil, nil, err
	}
	m := ctrlMsg{Type: msgJob, ID: fmt.Sprintf("j-%d", c.nextID.Add(1)), Src: src, Profile: asterixdb.ProfilingRequested(ctx)}
	if q == nil {
		acks, err := c.broadcast(peers, m)
		if err != nil {
			return nil, nil, err
		}
		switch res.Kind {
		case "insert", "delete", "load":
			// Each node stored only the records of the partitions it owns (and
			// the replica none), so the cluster-wide count is the nodes' sum.
			res.Count = 0
			for _, ack := range acks {
				res.Count += ack.Count
			}
		}
		return nil, res, nil
	}
	_, job, err := req.CompileQuery(q, algebra.Options{})
	if err != nil {
		return nil, nil, err
	}
	shape := jobShape(job)
	cur, push, finish := hyracks.NewGatherCursor()
	g := newGatherJob(m.ID, peers, cur, push, finish)
	c.mu.Lock()
	c.jobs[g.id] = g
	c.mu.Unlock()
	go func() {
		<-g.finished
		c.mu.Lock()
		delete(c.jobs, g.id)
		c.mu.Unlock()
	}()
	acks, err := c.broadcast(peers, m)
	if err == nil {
		err = ctx.Err()
	}
	for i := 0; err == nil && i < len(acks); i++ {
		if acks[i].Shape != shape {
			err = &asterixdb.Error{Code: asterixdb.CodeInternal, Message: fmt.Sprintf(
				"cluster: node %s built a different job than the controller (its catalog is out of step)", peers[i].name)}
		}
	}
	if err != nil {
		// No node has started, so none will report: cancel the prepared runs
		// and end the gather now.
		c.abortJob(g, err)
		g.finish(err)
		return nil, nil, err
	}
	return g, nil, nil
}

// abortJob fails a job exactly once: cancel fan-out to the live nodes, then
// a backstop timer forces the gather to finish even if no node ever reports
// back (so a consumer blocked in Close can never hang forever).
func (c *Controller) abortJob(g *gatherJob, err error) {
	g.abortOnce.Do(func() {
		g.setErr(err)
		msg := ctrlMsg{Type: msgCancel, ID: g.id, Err: toWireError(err)}
		for _, p := range c.alivePeers() {
			if g.names[p.name] {
				_ = p.conn.write(msg)
			}
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			timer := time.NewTimer(c.cfg.RPCTimeout)
			defer timer.Stop()
			select {
			case <-g.finished:
			case <-timer.C:
				g.finish(g.firstError())
			case <-c.closed:
				g.finish(g.firstError())
			}
		}()
	})
}

// ----------------------------------------------------------------------------
// result gathering
// ----------------------------------------------------------------------------

// gatherJob tracks one distributed job's result collection: which nodes have
// reported completion, the first terminal error, and the accepted result
// connections (closed at finish so their handler goroutines always exit).
type gatherJob struct {
	id       string
	names    map[string]bool // participants
	cur      *hyracks.Cursor
	push     func(hyracks.Frame) bool
	finishFn func(error)
	finished chan struct{}

	abortOnce  sync.Once
	finishOnce sync.Once

	mu       sync.Mutex
	done     map[string]bool
	firstErr error
	conns    []net.Conn
	profiles []*hyracks.JobProfile // per-node slice profiles, merge at finish
}

func newGatherJob(id string, peers []*ncPeer, cur *hyracks.Cursor, push func(hyracks.Frame) bool, finish func(error)) *gatherJob {
	names := make(map[string]bool, len(peers))
	for _, p := range peers {
		names[p.name] = true
	}
	return &gatherJob{
		id:       id,
		names:    names,
		cur:      cur,
		push:     push,
		finishFn: finish,
		finished: make(chan struct{}),
		done:     map[string]bool{},
	}
}

// addProfile records one node's slice profile for the merge at finish.
func (g *gatherJob) addProfile(p *hyracks.JobProfile) {
	g.mu.Lock()
	g.profiles = append(g.profiles, p)
	g.mu.Unlock()
}

func (g *gatherJob) nodeFinished(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done[name]
}

func (g *gatherJob) setErr(err error) {
	g.mu.Lock()
	if g.firstErr == nil && err != nil {
		g.firstErr = err
	}
	g.mu.Unlock()
}

func (g *gatherJob) firstError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstErr
}

func (g *gatherJob) addConn(conn net.Conn) {
	g.mu.Lock()
	g.conns = append(g.conns, conn)
	g.mu.Unlock()
}

// finish terminates the gather cursor (once) and closes every result
// connection so blocked handler goroutines unwind. The per-node profiles
// merge into the cursor's cluster-wide profile first — SetProfile must
// precede the cursor's done signal.
func (g *gatherJob) finish(err error) {
	g.finishOnce.Do(func() {
		g.setErr(err)
		g.mu.Lock()
		profiles := g.profiles
		g.mu.Unlock()
		if merged := hyracks.MergeProfiles(profiles); merged != nil {
			g.cur.SetProfile(merged)
		}
		g.finishFn(g.firstError())
		g.mu.Lock()
		conns := g.conns
		g.conns = nil
		g.mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
		close(g.finished)
	})
}

// nodeDone records one node's completion report; the gather finishes when
// every participant has reported. A non-nil error is terminal for the whole
// job: it aborts the remaining slices immediately.
func (c *Controller) nodeDone(g *gatherJob, name string, err error) {
	g.mu.Lock()
	if g.done[name] || !g.names[name] {
		g.mu.Unlock()
		return
	}
	g.done[name] = true
	if err != nil && g.firstErr == nil {
		g.firstErr = err
	}
	complete := len(g.done) == len(g.names)
	g.mu.Unlock()
	if err != nil && !complete {
		c.abortJob(g, err)
	}
	if complete {
		g.finish(g.firstError())
	}
}

func (c *Controller) acceptData() {
	for {
		conn, err := c.dataLn.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleResult(conn)
		}()
	}
}

// lookupJob finds a running job; it needs no retry (see submit).
func (c *Controller) lookupJob(id string) *gatherJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// handleResult drains one node's result stream: frames push into the gather
// cursor (keeping their sink operator/partition tags for deterministic
// ordering), and the trailing done record carries the node's terminal error.
// When the consumer walks away (push reports false) the handler aborts the
// job but keeps draining so the node is never blocked on a full TCP window
// mid-teardown; finish closes the connection, unblocking any pending read.
func (c *Controller) handleResult(conn net.Conn) {
	defer conn.Close()
	br := newDataReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	h, err := readHandshake(br)
	if err != nil || h.Edge != -1 {
		return
	}
	g := c.lookupJob(h.Job)
	if g == nil {
		return
	}
	g.addConn(conn)
	_ = conn.SetReadDeadline(time.Time{})
	pushing := true
	for {
		kind, a, b, payload, err := readRecord(br)
		if err != nil {
			// Connection lost without a done record: the control-plane
			// liveness tracking decides whether the node died; here we only
			// stop serving the stream.
			return
		}
		switch kind {
		case recFrame:
			if !pushing {
				continue
			}
			tuples, derr := decodeTuples(payload)
			if derr != nil {
				c.abortJob(g, derr)
				return
			}
			if !g.push(hyracks.Frame{Op: int(a), Partition: int(b), Tuples: tuples}) {
				// The consumer closed the cursor: stop the cluster-wide job,
				// then drain the remaining records without pushing.
				pushing = false
				c.abortJob(g, nil)
			}
		case recProfile:
			p := new(hyracks.JobProfile)
			if jerr := json.Unmarshal(payload, p); jerr == nil {
				g.addProfile(p)
			}
		case recDone:
			var werr *wireError
			if len(payload) > 0 {
				werr = new(wireError)
				if jerr := json.Unmarshal(payload, werr); jerr != nil {
					werr = &wireError{Code: asterixdb.CodeInternal, Message: "cluster: undecodable completion record"}
				}
			}
			c.nodeDone(g, h.From, werr.Err())
			return
		default:
			c.abortJob(g, corruptf("cluster: unexpected record kind %d on result connection", kind))
			return
		}
	}
}
