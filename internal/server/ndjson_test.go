package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// countingListener hands out connections that count their Write calls, so a
// test sees how many socket writes a response took.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// wire is s behind a real loopback listener whose writes are counted. Its
// client opens one connection per request, so a request's count is the
// counter's change across it.
type wire struct {
	url    string
	l      *countingListener
	client *http.Client
}

func serveCounting(t *testing.T, s *Server) *wire {
	t.Helper()
	ts := httptest.NewUnstartedServer(s)
	l := &countingListener{Listener: ts.Listener}
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	return &wire{url: ts.URL, l: l, client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}}
}

// do sends one request and returns the response (body read and closed), the
// body, and the number of socket writes the server made for it.
func (wr *wire) do(t *testing.T, method, target, body string) (*http.Response, string, int64) {
	t.Helper()
	req, err := http.NewRequest(method, wr.url+target, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	before := wr.l.writes.Load()
	resp, err := wr.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b), wr.l.writes.Load() - before
}

// ndjsonLines splits a body into its lines, checking that each is JSON.
func ndjsonLines(t *testing.T, body string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %.80q is not JSON", ln)
		}
	}
	return lines
}

// TestSmallAnswerIsOneWrite: an answer smaller than one write buffer leaves
// the server in one socket write with a Content-Length, in every mode.
func TestSmallAnswerIsOneWrite(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 25)
	wr := serveCounting(t, s)
	resp, body, writes := wr.do(t, "POST", "/query", `for $i in dataset Items where $i.k = 3 return $i;`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if n := len(ndjsonLines(t, body)); n != 3 {
		t.Fatalf("got %d rows, want 3: %q", n, body)
	}
	if writes != 1 {
		t.Errorf("a 3-row answer took %d socket writes, want 1", writes)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want Content-Length %d and no transfer encoding",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}

	resp, body, _ = wr.do(t, "POST", "/query?mode=deferred", `for $i in dataset Items where $i.k = 3 return $i;`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deferred: %d %s", resp.StatusCode, body)
	}
	handle, _ := decodeJSON(t, body)["handle"].(string)
	resp, body, writes = wr.do(t, "GET", "/query/result?handle="+handle, "")
	if resp.StatusCode != http.StatusOK || len(ndjsonLines(t, body)) != 3 {
		t.Fatalf("result: %d %q", resp.StatusCode, body)
	}
	if writes != 1 || resp.ContentLength != int64(len(body)) {
		t.Errorf("a 3-row handle result took %d writes with Content-Length %d, want 1 write and %d",
			writes, resp.ContentLength, len(body))
	}
}

// TestLargeAnswerStreamsInChunks: an answer past one write buffer streams
// with chunked encoding, arrives complete, takes about two socket writes per
// buffer (chunk header, then the buffer), and keeps the profile trailer last.
func TestLargeAnswerStreamsInChunks(t *testing.T) {
	s, _ := newTestServer(t)
	const rows = 300
	loadMixed(t, s, rows, 500, false)
	wr := serveCounting(t, s)
	for _, target := range []string{"/query", "/query?profile=true"} {
		resp, body, writes := wr.do(t, "POST", target, `for $x in dataset Mixed return $x;`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", target, resp.StatusCode, body)
		}
		if len(body) <= writeChunk {
			t.Fatalf("%s: answer is %d bytes, not past one %d-byte write", target, len(body), writeChunk)
		}
		if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
			t.Errorf("%s: Transfer-Encoding %v, want chunked", target, resp.TransferEncoding)
		}
		lines := ndjsonLines(t, body)
		want := rows
		if target != "/query" {
			want++
			if _, ok := decodeJSON(t, lines[len(lines)-1])["profile"]; !ok {
				t.Errorf("%s: last line %.80q is not the profile trailer", target, lines[len(lines)-1])
			}
		}
		if len(lines) != want {
			t.Errorf("%s: got %d lines, want %d", target, len(lines), want)
		}
		chunks := (len(body) + writeChunk - 1) / writeChunk
		if limit := int64(2*chunks + 1); writes > limit {
			t.Errorf("%s: %d bytes took %d socket writes, want at most %d", target, len(body), writes, limit)
		}
	}
}

// TestErrorInFirstBufferIsStatus: a run-time failure before anything was
// written is the error's status code and JSON error body, not a 200 stream.
func TestErrorInFirstBufferIsStatus(t *testing.T) {
	s, _ := newTestServer(t)
	loadMixed(t, s, 5, 10, true)
	wr := serveCounting(t, s)
	resp, body, _ := wr.do(t, "POST", "/query", mixedQuery)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("status 200 for a statement failing on its 6th row: %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	errObj, _ := decodeJSON(t, body)["error"].(map[string]any)
	if errObj["code"] == nil || errObj["message"] == nil {
		t.Errorf("body %q is not {\"error\":{code,message}}", body)
	}
}
