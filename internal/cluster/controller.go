package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
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
	// RPCTimeout bounds every statement/job round trip to a node and the
	// post-cancel drain of a failed job's result streams (default 30s).
	RPCTimeout time.Duration
	// WriteTimeout bounds every control-plane write (default 10s).
	WriteTimeout time.Duration
}

// Controller is the cluster controller: it owns the catalog (a local
// instance that never stores base data), compiles and validates every
// request, fans statements and jobs out to the node controllers, and gathers
// result frames into cursors. It implements the server.Engine surface, so
// the HTTP API fronts a cluster exactly as it fronts a single process.
type Controller struct {
	inst *asterixdb.Instance
	cfg  ControllerConfig

	ctrlLn net.Listener
	dataLn net.Listener

	formed chan struct{} // closed once ExpectNodes nodes registered

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
		case msgStmtAck, msgJobAck:
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

func (c *Controller) newID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, c.nextID.Add(1))
}

// rpc sends one message to one node and waits for its ack, bounded by the
// node's liveness and the RPC deadline.
func (c *Controller) rpc(ctx context.Context, p *ncPeer, m ctrlMsg) (ctrlMsg, error) {
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
	case <-ctx.Done():
		return ctrlMsg{}, ctx.Err()
	case <-c.closed:
		return ctrlMsg{}, unavailablef("cluster: controller shutting down")
	}
}

// broadcast runs the same RPC against every peer concurrently and returns
// the acks (indexed like peers) and the first error.
func (c *Controller) broadcast(ctx context.Context, peers []*ncPeer, m ctrlMsg) ([]ctrlMsg, error) {
	acks := make([]ctrlMsg, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *ncPeer) {
			defer wg.Done()
			acks[i], errs[i] = c.rpc(ctx, p, m)
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
// server.Engine: statements
// ----------------------------------------------------------------------------

// ExecuteContext runs AQL statements cluster-wide: the controller's catalog
// replica applies them first (so malformed requests are rejected before any
// node sees them), then every node executes the same source against its
// partition slice. DML counts sum across nodes; everything else (DDL,
// queries through the statement path) reports the controller's local result.
func (c *Controller) ExecuteContext(ctx context.Context, src string) (*asterixdb.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	peers, err := c.requireCluster()
	if err != nil {
		return nil, err
	}
	res, err := c.inst.ExecuteContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return c.broadcastStatements(ctx, peers, src, res)
}

// broadcastStatements has every node execute src after the catalog replica
// produced res for it, and folds the nodes' DML counts into res.
func (c *Controller) broadcastStatements(ctx context.Context, peers []*ncPeer, src string, res *asterixdb.Result) (*asterixdb.Result, error) {
	acks, err := c.broadcast(ctx, peers, ctrlMsg{Type: msgStmt, ID: c.newID("s"), Src: src})
	if err != nil {
		return nil, err
	}
	switch res.Kind {
	case "insert", "delete", "load":
		// Each node stored only the records of the partitions it owns (and
		// the controller's catalog replica stored none), so the cluster-wide
		// count is the sum of the node counts.
		total := 0
		for _, ack := range acks {
			total += ack.Count
		}
		res.Count = total
	}
	return res, nil
}

// ----------------------------------------------------------------------------
// server.Engine: streaming queries
// ----------------------------------------------------------------------------

// QueryStream plans and runs a query across the cluster, returning a cursor
// over the gathered result stream. The catalog replica executes the leading
// statements and compiles the final query (for validation and typed compile
// errors); the request then ships as source to every node, which each repeat
// both steps — reaching the identical catalog state and job — execute their
// slice of the job and stream sink frames back. A request with no final query
// runs through the statement path and yields an exhausted cursor.
func (c *Controller) QueryStream(ctx context.Context, src string) (*asterixdb.Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	peers, err := c.requireCluster()
	if err != nil {
		return nil, err
	}
	req, q, res, err := c.inst.ExecuteForQuery(ctx, src)
	if err != nil {
		return nil, err
	}
	if q == nil {
		if _, err := c.broadcastStatements(ctx, peers, src, res); err != nil {
			return nil, err
		}
		return asterixdb.NewJobCursor(ctx, nil), nil
	}
	if _, _, err := req.CompileQuery(q, algebra.Options{}); err != nil {
		return nil, err
	}
	// The nodes replay the full source — leading statements included — inside
	// the job message, which keeps statement + query requests atomic per node.
	return c.runDistributedQuery(ctx, peers, src)
}

// runDistributedQuery drives one job through its prepare / launch / gather
// phases. When the caller's context requests profiling, the flag rides the
// job message and each node ships its slice's profile back with the result
// stream; the gather merges them into one cluster-wide profile.
func (c *Controller) runDistributedQuery(ctx context.Context, peers []*ncPeer, src string) (*asterixdb.Cursor, error) {
	id := c.newID("j")
	profile := asterixdb.ProfilingRequested(ctx)
	cur, push, finish := hyracks.NewGatherCursor()
	g := newGatherJob(id, peers, cur, push, finish)
	c.mu.Lock()
	c.jobs[id] = g
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.jobs, id)
		c.mu.Unlock()
	}
	go func() {
		<-g.finished
		cleanup()
	}()

	// Prepare: every node executes the leading statements, compiles the
	// query, and registers the run so peer data connections can attach.
	if _, err := c.broadcast(ctx, peers, ctrlMsg{Type: msgJob, ID: id, Src: src, Profile: profile}); err != nil {
		c.abortJob(g, err)
		return nil, err
	}
	// Launch. A write failure marks the node dead, which fails the job.
	for _, p := range peers {
		if err := p.conn.write(ctrlMsg{Type: msgGo, ID: id}); err != nil {
			c.nodeDied(p)
		}
	}
	return asterixdb.NewJobCursor(ctx, cur), nil
}

// abortJob fails a job exactly once: cancel fan-out to the live nodes, then
// a backstop timer forces the gather to finish even if no node ever reports
// back (so a consumer blocked in Close can never hang forever).
func (c *Controller) abortJob(g *gatherJob, err error) {
	g.abortOnce.Do(func() {
		g.setErr(err)
		msg := ctrlMsg{Type: msgCancel, ID: g.id, Err: toWireError(err)}
		for _, p := range c.alivePeers() {
			if g.participant(p.name) {
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
	expect   int
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
		expect:   len(peers),
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

func (g *gatherJob) participant(name string) bool { return g.names[name] }

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
	complete := len(g.done) >= g.expect
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

// lookupJob retries briefly: a node's result connection can arrive while the
// job registration (same goroutine as the broadcast) is still in flight.
func (c *Controller) lookupJob(id string) *gatherJob {
	deadline := time.Now().Add(c.cfg.RPCTimeout)
	for {
		c.mu.Lock()
		g := c.jobs[id]
		c.mu.Unlock()
		if g != nil {
			return g
		}
		select {
		case <-c.closed:
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
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
