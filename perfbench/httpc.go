package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to minupd. Requests are
// pre-serialized byte slices and the response body lands in a buffer the
// connection reuses, so a step allocates nothing in the benchmark process.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) Close() error { return c.nc.Close() }

// do sends one request and reads its response. The returned body is valid
// until the next call. Any transport or framing error leaves the
// connection unusable.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.line()
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status = atoi(line[9:12])
	length, chunked := -1, false
	for {
		h, err := c.line()
		if err != nil {
			return 0, nil, err
		}
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			length = atoi(v)
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			h, err := c.line()
			if err != nil {
				return 0, nil, err
			}
			if i := bytes.IndexByte(h, ';'); i >= 0 {
				h = h[:i]
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(h)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", h)
			}
			if n == 0 {
				for { // trailers
					t, err := c.line()
					if err != nil {
						return 0, nil, err
					}
					if len(t) == 0 {
						break
					}
				}
				break
			}
			if err := c.read(int(n)); err != nil {
				return 0, nil, err
			}
			if crlf, err := c.line(); err != nil || len(crlf) != 0 {
				return 0, nil, errors.New("bad chunk terminator")
			}
		}
	case length > 0:
		if err := c.read(length); err != nil {
			return 0, nil, err
		}
	}
	return status, c.body, nil
}

// line reads one CRLF-terminated line without its terminator.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// read appends exactly n body bytes.
func (c *conn) read(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func atoi(b []byte) int {
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return -1
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

// request serializes one request. A nil body sends no Content-Length.
func request(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: minupd\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// jsonField finds `"key": <unsigned number>` in a JSON body without
// decoding it; ok is false when the key is absent.
func jsonField(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(key)+3:], " ")
	var n uint64
	digits := 0
	for _, ch := range rest {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + uint64(ch-'0')
		digits++
	}
	return n, digits > 0
}

// getJSON fetches path on a fresh connection and decodes the answer.
func getJSON(addr, path string, v any) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	status, body, err := c.do(request("GET", path, nil))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
