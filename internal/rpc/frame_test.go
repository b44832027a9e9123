package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// countConn counts the Write calls made on a connection.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func TestWriteFrameOneWrite(t *testing.T) {
	var buf bytes.Buffer
	cw := &countWriter{w: &buf}
	payload := []byte("frame payload")
	w := wire.GetWriter()
	w.Uint32(0)
	w.Bytes_(payload)
	if err := writeFrame(cw, w); err != nil {
		t.Fatal(err)
	}
	wire.PutWriter(w)
	if cw.n != 1 {
		t.Fatalf("%d writes for one frame, want 1", cw.n)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(got)
	if b := r.Bytes(); !bytes.Equal(b, payload) || r.Done() != nil {
		t.Fatalf("frame round trip: got %q", b)
	}
}

type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(b []byte) (int, error) {
	c.n++
	return c.w.Write(b)
}

// TestTCPOneWritePerFrame drives the real server and dialer code over an
// in-memory pipe and counts socket writes: one per request frame on the
// dialer side, one per response frame on the server side.
func TestTCPOneWritePerFrame(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	srvConn := &countConn{Conn: srvEnd}
	cliConn := &countConn{Conn: cliEnd}
	srv := &TCPServer{
		h:     func(from, method string, body []byte) ([]byte, error) { return body, nil },
		conns: make(map[net.Conn]struct{}),
	}
	go srv.serveConn(srvConn)
	c := &tcpConn{conn: cliConn, pending: make(map[uint64]chan tcpResult)}
	go c.readLoop()
	d := &TCPDialer{conns: map[string]*tcpConn{"pipe": c}}
	defer d.Close()

	const calls = 20
	for i := 0; i < calls; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 100*i)
		got, err := d.CallTimeout("pipe", "echo", body, 5*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("call %d: echo mismatch", i)
		}
	}
	if n := cliConn.writes.Load(); n != calls {
		t.Fatalf("dialer made %d writes for %d request frames", n, calls)
	}
	if n := srvConn.writes.Load(); n != calls {
		t.Fatalf("server made %d writes for %d response frames", n, calls)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 8)
	if _, err := readFrame(bytes.NewReader(append(hdr[:], 1, 2, 3))); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// rawConn dials srv without the dialer, for sending hand-made frames.
func rawConn(t *testing.T, srv *TCPServer) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// expectDropped asserts the server closes conn without replying.
func expectDropped(t *testing.T, conn net.Conn) {
	t.Helper()
	var b [1]byte
	n, err := conn.Read(b[:])
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the connection open after a bad frame")
	}
	if n != 0 || err == nil {
		t.Fatalf("server answered a bad frame (n=%d err=%v)", n, err)
	}
}

func TestTCPServerDropsBadFrames(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		t.Errorf("handler reached by a bad frame (method %q)", method)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Oversized: a length prefix above the limit.
	conn := rawConn(t, srv)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	conn.Write(hdr[:])
	expectDropped(t, conn)
	conn.Close()

	// Malformed: a response frame sent to the server, and a request
	// frame with trailing bytes.
	for _, build := range []func(w *wire.Writer){
		func(w *wire.Writer) { w.Uvarint(1); w.Byte(frameResponse); w.String_(""); w.Bytes_(nil) },
		func(w *wire.Writer) { w.Uvarint(1); w.Byte(frameRequest); w.String_("m"); w.Bytes_(nil); w.Byte(9) },
	} {
		conn := rawConn(t, srv)
		w := wire.GetWriter()
		w.Uint32(0)
		build(w)
		if err := writeFrame(conn, w); err != nil {
			t.Fatal(err)
		}
		wire.PutWriter(w)
		expectDropped(t, conn)
		conn.Close()
	}
}

func TestTCPDialerFailsOnMalformedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		// Answer with a request-kind frame: a protocol violation.
		w := wire.GetWriter()
		w.Uint32(0)
		w.Uvarint(0)
		w.Byte(frameRequest)
		w.String_("")
		w.Bytes_(nil)
		writeFrame(conn, w)
		wire.PutWriter(w)
		io.Copy(io.Discard, conn)
	}()
	d := NewTCPDialer()
	defer d.Close()
	if _, err := d.CallTimeout(ln.Addr().String(), "x", nil, 5*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
