package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"asterixdb"
	"asterixdb/internal/hyracks"
)

// Control-plane message types. The control plane is newline-delimited JSON
// over a single TCP connection per node controller, dialed NC -> CC.
const (
	msgRegister = "register" // NC -> CC: node name + data-plane address
	msgReady    = "ready"    // CC -> NC: cluster formed; sorted node list
	msgJob      = "job"      // CC -> NC: run a request's prelude, prepare its query
	msgJobAck   = "job_ack"  // NC -> CC: DML count or job shape (or the error)
	msgGo       = "go"       // CC -> NC: start the prepared job
	msgCancel   = "cancel"   // CC -> NC: abort a job
	msgPing     = "ping"     // CC -> NC heartbeat
	msgPong     = "pong"     // NC -> CC heartbeat reply
)

// nodeInfo describes one node controller to the rest of the cluster.
type nodeInfo struct {
	Name     string `json:"name"`
	DataAddr string `json:"dataAddr"`
}

// wireError ships a typed asterixdb error across a connection.
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func toWireError(err error) *wireError {
	if err == nil {
		return nil
	}
	return &wireError{Code: asterixdb.ErrorCode(err), Message: err.Error()}
}

func (w *wireError) Err() error {
	if w == nil {
		return nil
	}
	return &asterixdb.Error{Code: w.Code, Message: w.Message}
}

// ctrlMsg is the single envelope for every control-plane message; unused
// fields are omitted per type.
type ctrlMsg struct {
	Type       string     `json:"type"`
	Node       string     `json:"node,omitempty"`
	DataAddr   string     `json:"dataAddr,omitempty"`
	Partitions int        `json:"partitions,omitempty"`
	Nodes      []nodeInfo `json:"nodes,omitempty"`
	ID         string     `json:"id,omitempty"`
	Src        string     `json:"src,omitempty"`
	Count      int        `json:"count,omitempty"`
	// Shape, on a job ack, is jobShape of the node's compiled job.
	Shape uint64 `json:"shape,omitempty"`
	// Profile, on a job message, asks the node to run its slice with
	// per-operator instrumentation and ship the profile back with the
	// result stream.
	Profile bool       `json:"profile,omitempty"`
	Err     *wireError `json:"err,omitempty"`
}

// ctrlConn wraps a control-plane connection: serialized line writes with a
// per-write deadline, and line reads with a liveness deadline.
type ctrlConn struct {
	conn net.Conn
	br   *bufio.Reader

	writeMu      sync.Mutex
	writeTimeout time.Duration
}

func newCtrlConn(conn net.Conn, writeTimeout time.Duration) *ctrlConn {
	return &ctrlConn{conn: conn, br: bufio.NewReader(conn), writeTimeout: writeTimeout}
}

// write sends one message under the connection's write mutex and deadline.
func (c *ctrlConn) write(m ctrlMsg) error {
	buf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	_, err = c.conn.Write(buf)
	return err
}

// read returns the next message, enforcing the given liveness deadline: a
// peer that sends nothing (not even heartbeats) within it is considered
// dead.
func (c *ctrlConn) read(timeout time.Duration) (ctrlMsg, error) {
	if timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return ctrlMsg{}, err
		}
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return ctrlMsg{}, err
	}
	var m ctrlMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return ctrlMsg{}, corruptf("cluster: bad control message: %v", err)
	}
	return m, nil
}

func (c *ctrlConn) Close() error { return c.conn.Close() }

// unavailablef mints the typed error surfaced when a node or the cluster as
// a whole cannot serve a request.
func unavailablef(format string, args ...any) error {
	return &asterixdb.Error{Code: asterixdb.CodeUnavailable, Message: fmt.Sprintf(format, args...)}
}

// jobShape hashes what every node's job must share with the controller's for
// an edge's index in job.Edges to name the same edge cluster-wide: each
// operator's name and parallelism, and each edge's endpoints, port and
// connector kind, in order.
func jobShape(job *hyracks.Job) uint64 {
	h := fnv.New64a()
	for _, op := range job.Operators {
		fmt.Fprintf(h, "%q %d\n", op.Name(), op.Parallelism())
	}
	for _, e := range job.Edges {
		fmt.Fprintf(h, "%d %d %d %s\n", e.From, e.To, e.Port, e.Connector.Kind)
	}
	return h.Sum64()
}
