package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one persistent HTTP/1.1 connection that one goroutine uses
// synchronously: the request goes out, the whole answer comes back,
// nothing else happens in between. net/http's pooled Transport passes
// every exchange through two more goroutines per connection and, capped
// at two connections, makes the next request wait until the previous
// answer's connection is back in the pool; on a 2-core box that hand-off
// jitter landed in every latency and throughput the benchmark measured.
type httpConn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newConn(addr string) *httpConn { return &httpConn{addr: addr} }

// exchangeTimeout bounds one exchange; no request of any workload comes
// near it unless the service hangs.
const exchangeTimeout = 60 * time.Second

// do sends one request and reads the whole answer. header, when non-empty,
// is one extra "Name: value" line. A failed exchange closes the
// connection; the next one dials again.
func (h *httpConn) do(method, path string, body []byte, header string) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br, h.bw = c, bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 16<<10)
	}
	if err := h.c.SetDeadline(time.Now().Add(exchangeTimeout)); err != nil {
		h.close()
		return 0, nil, err
	}
	w := h.bw
	w.WriteString(method)
	w.WriteByte(' ')
	w.WriteString(path)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(h.addr)
	w.WriteString("\r\n")
	if header != "" {
		w.WriteString(header)
		w.WriteString("\r\n")
	}
	if body != nil || method == http.MethodPost {
		w.WriteString("Content-Type: application/json\r\nContent-Length: ")
		w.WriteString(strconv.Itoa(len(body)))
		w.WriteString("\r\n")
	}
	w.WriteString("\r\n")
	w.Write(body)
	if err := w.Flush(); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		h.close()
	}
	return resp.StatusCode, data, err
}

// close drops the connection.
func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close() // nothing is buffered for writing once an exchange ended
		h.c = nil
	}
}

// getJSON fetches path and decodes a 200 answer into out.
func (h *httpConn) getJSON(path string, out any) error {
	status, body, err := h.do(http.MethodGet, path, nil, "")
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// post POSTs to path and requires a 200 answer.
func (h *httpConn) post(path string) error {
	status, _, err := h.do(http.MethodPost, path, nil, "")
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, status)
	}
	return nil
}
