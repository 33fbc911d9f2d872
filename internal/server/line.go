package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"rawdb/internal/vector"
)

// Line protocol: one JSON object per line in each direction, strictly
// sequential per connection — a client sends a Request line, reads exactly
// one Response line, then may send the next. Concurrency comes from opening
// many connections (a "session" is a connection), which keeps the protocol
// trivial to speak from netcat or a shell script while still exercising the
// shared engine from N sessions at once. Per-query deadlines travel in-band
// (timeout_ms); mid-query cancellation needs the richer HTTP transport.

// ServeLine accepts line-protocol connections until the listener is closed
// (it returns the listener's error then). Each connection gets its own
// goroutine; queries within a connection run one at a time.
func (s *Server) ServeLine(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

// maxRetainedLine bounds the response buffer a connection keeps between
// queries: a larger one, grown by an exceptional result, is dropped after it
// is sent, so no session pins the size of its largest result.
const maxRetainedLine = 256 << 10

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // requests are untrusted: capped
	var buf []byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			buf = appendError(buf[:0], "bad request: "+err.Error())
		} else {
			buf, _ = s.serve(context.Background(), req, buf[:0])
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
		if cap(buf) > maxRetainedLine {
			buf = nil
		}
	}
}

// Client speaks the line protocol. One Client is one session: queries issued
// through it are sequential (guarded by a mutex so a Client may be shared,
// though difftest opens one per simulated session).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects a line-protocol session to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// Query sends one request and reads its response. A Response with a non-empty
// Error field is surfaced as a Go error.
func (c *Client) Query(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	if line, err = readLine(c.r); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("server: connection closed mid-query")
		}
		return nil, err
	}
	resp, err := decodeResponse(line)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("server: %s", resp.Error)
	}
	return resp, nil
}

// readLine reads one response line without its newline. Responses come from
// the server the client chose to trust, so unlike requests their length is
// not capped: a line longer than the reader's buffer is accumulated. The
// returned bytes are valid until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	var long []byte
	for err == bufio.ErrBufferFull {
		long = append(long, line...)
		line, err = r.ReadSlice('\n')
	}
	if long != nil {
		line = append(long, line...)
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// Int64 decodes one cell as BIGINT, panicking on type or syntax mismatch
// (test helper).
func (r *Response) Int64(row, col int) int64 {
	if r.Types[col] != vector.Int64.String() {
		panic(fmt.Sprintf("column %d is %s, not BIGINT", col, r.Types[col]))
	}
	v, err := strconv.ParseInt(r.Rows[row][col], 10, 64)
	if err != nil {
		panic(err)
	}
	return v
}

// Float64 decodes one cell as DOUBLE, panicking on type or syntax mismatch
// (test helper).
func (r *Response) Float64(row, col int) float64 {
	if r.Types[col] != vector.Float64.String() {
		panic(fmt.Sprintf("column %d is %s, not DOUBLE", col, r.Types[col]))
	}
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		panic(err)
	}
	return v
}
