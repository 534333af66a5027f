package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestStalledHeadersConnectionClosed pins the daemon's ReadHeaderTimeout: a
// client that opens a connection and never finishes its request headers is
// disconnected once the timeout passes, instead of holding the connection
// open indefinitely.
func TestStalledHeadersConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler(), 100*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends
	// the header block.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v: the stalled client was not disconnected", time.Since(start))
	}
	if err != nil {
		t.Fatalf("reading from the server: %v", err)
	}
}
