// Package cluster is the multi-process runtime of the paper's architecture:
// a Cluster Controller (Controller) that owns the catalog, compiles AQL into
// Hyracks jobs and coordinates their execution, and Node Controllers (Node)
// that each own a subset of the storage partitions and run the operator
// instances placed on them. Frames cross node boundaries over TCP through
// the length-prefixed wire protocol in this file; same-node edges keep using
// the in-process channel connectors.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/hyracks"
)

// Record kinds on a data-plane connection. An edge connection (NC -> NC)
// carries recFrame (a=target consumer instance) and recEOS (one per finished
// producer instance). A result connection (NC -> CC) carries recFrame
// (a=sink operator index, b=sink instance partition), optionally recProfile
// (payload is the node's JSON JobProfile, sent before the completion record
// when the job ran with profiling), and recDone (payload is a JSON
// wireError, empty on success).
const (
	recFrame   = byte(1)
	recEOS     = byte(2)
	recDone    = byte(3)
	recProfile = byte(4)
)

// maxWirePayload bounds a single record's payload so a corrupt or hostile
// length prefix cannot drive an arbitrarily large allocation.
const maxWirePayload = 64 << 20

// corruptf mints the typed error every wire-decode failure returns: corrupt
// or truncated input is a protocol-level invalid-data condition, never a
// panic or a silent short read.
func corruptf(format string, args ...any) error {
	return &asterixdb.Error{Code: asterixdb.CodeInvalid, Message: fmt.Sprintf(format, args...)}
}

// encodeTuples appends the wire encoding of a frame's tuples to dst: a
// uvarint tuple count, then each tuple in the adm tuple encoding.
func encodeTuples(dst []byte, tuples []hyracks.Tuple) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	for _, t := range tuples {
		var err error
		if dst, err = adm.AppendTuple(dst, t); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeTuples decodes a recFrame payload. Corrupt or truncated input
// returns a typed error; it never panics and never fabricates partial
// tuples.
func decodeTuples(payload []byte) ([]hyracks.Tuple, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, corruptf("cluster: frame payload missing tuple count")
	}
	payload = payload[used:]
	// Every tuple costs at least one payload byte (its column-count varint),
	// so a count beyond the remaining payload is corrupt — checked before the
	// allocation it would size.
	if n > uint64(len(payload)) {
		return nil, corruptf("cluster: frame tuple count %d exceeds payload", n)
	}
	tuples := make([]hyracks.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t, used, err := adm.DecodeTuple(payload)
		if err != nil {
			return nil, corruptf("cluster: frame tuple %d: %v", i, err)
		}
		payload = payload[used:]
		tuples = append(tuples, t)
	}
	if len(payload) != 0 {
		return nil, corruptf("cluster: frame payload has %d trailing bytes", len(payload))
	}
	return tuples, nil
}

// writeRecord assembles one data-plane record — kind byte, two uvarint
// header fields, uvarint payload length, payload — into a single buffer and
// writes it with one Write call, so records from concurrent producers
// serialized by the connection mutex never interleave.
func writeRecord(w io.Writer, kind byte, a, b uint64, payload []byte) error {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(payload))
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, a)
	buf = binary.AppendUvarint(buf, b)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readRecord reads one data-plane record. Every read goes through
// io.ReadFull, so a slow peer can never cause a silent short read; a corrupt
// length prefix returns a typed error before any allocation it would size.
func readRecord(br *bufio.Reader) (kind byte, a, b uint64, payload []byte, err error) {
	var kb [1]byte
	if _, err = io.ReadFull(br, kb[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	kind = kb[0]
	if kind != recFrame && kind != recEOS && kind != recDone && kind != recProfile {
		return 0, 0, 0, nil, corruptf("cluster: unknown record kind %d", kind)
	}
	if a, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, nil, err
	}
	if b, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if n > maxWirePayload {
		return 0, 0, 0, nil, corruptf("cluster: record payload length %d exceeds limit", n)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(br, payload); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return kind, a, b, payload, nil
}

// newDataReader wraps an inbound data-plane connection for record reads.
func newDataReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, 64<<10)
}

// mustJSON marshals a value that cannot fail (plain structs of strings).
func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}

// dataHandshake is the first line of a data-plane connection, identifying
// which job and edge (or result stream) the binary records that follow
// belong to.
type dataHandshake struct {
	Job  string `json:"job"`
	From string `json:"from"`
	// Edge is the job.Edges index for NC->NC connections; -1 marks a
	// result connection to the coordinator.
	Edge int `json:"edge"`
}

// writeHandshake sends the handshake as one newline-terminated JSON line.
func writeHandshake(w io.Writer, h dataHandshake) error {
	buf, err := json.Marshal(h)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// readHandshake reads the handshake line (bounded, via the bufio reader).
func readHandshake(br *bufio.Reader) (dataHandshake, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return dataHandshake{}, err
	}
	var h dataHandshake
	if err := json.Unmarshal(line, &h); err != nil {
		return dataHandshake{}, corruptf("cluster: bad data handshake: %v", err)
	}
	return h, nil
}
