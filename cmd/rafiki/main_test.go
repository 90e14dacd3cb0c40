package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDropsStalledHeaders: the REST listener bounds header reads and
// idle connections but not writes (a query may wait out its SLO), and a
// client that never finishes its headers is disconnected.
func TestHTTPServerDropsStalledHeaders(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("timeouts: header %v idle %v write %v read %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout, srv.ReadTimeout)
	}
	// The same server with a short header timeout, so the test does not sit
	// out the production 10 s.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: rafiki\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server hangs up; a read deadline error instead means it kept the
	// stalled connection open.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected after %v: %v", time.Since(start), err)
	}
}
