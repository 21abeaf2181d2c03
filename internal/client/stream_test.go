package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/wire"
)

// fakeStream dials a StreamClient against a loopback stand-in for the
// server: it answers the wats-stream/1 upgrade with a one-entry HELLO
// and then hands the connection to serve, which returns when it is done
// with it (the connection is closed after).
func fakeStream(t *testing.T, serve func(conn *net.TCPConn, br *bufio.Reader)) *StreamClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		req.Body.Close()
		hello := wire.AppendHello([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.Proto+"\r\n\r\n"),
			[]wire.HelloEntry{{ID: 0, Name: "noop", Class: "noop"}})
		if _, err := conn.Write(hello); err != nil {
			return
		}
		serve(conn.(*net.TCPConn), br)
	}()
	c, err := New(Config{BaseURL: "http://" + ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.DialStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// readN reads exactly n bytes from the fake server's side, or fails.
func readN(t *testing.T, conn net.Conn, br *bufio.Reader, n int) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Errorf("reading %d bytes: %v", n, err)
	}
	return buf
}

func sub(id uint64) *wire.Submit {
	return &wire.Submit{ID: id, Seed: id * 7, Size: int64(id % 4096), N: 3, Generations: 1}
}

// Every flushed frame reaches the server byte-identical and in order.
func TestStreamFramesArriveInOrder(t *testing.T) {
	const n = 10000
	var want []byte
	for i := uint64(1); i <= n; i++ {
		want = wire.AppendSubmit(want, sub(i))
	}
	got := make(chan []byte, 1)
	sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
		got <- readN(t, conn, br, len(want))
	})
	for i := uint64(1); i <= n; i++ {
		if err := sc.Submit(sub(i)); err != nil {
			t.Fatal(err)
		}
		if err := sc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("server received %d bytes that differ from the %d submitted", len(b), len(want))
	}
}

// A frame submitted after the last Flush stays on the client until the
// next one.
func TestStreamUnflushedNotSent(t *testing.T) {
	first := wire.AppendSubmit(nil, sub(1))
	second := wire.AppendSubmit(nil, sub(2))
	step := make(chan struct{})
	errs := make(chan string, 2)
	sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
		if b := readN(t, conn, br, len(first)); !bytes.Equal(b, first) {
			errs <- "first frame corrupted"
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := br.ReadByte(); err == nil {
			errs <- "an unflushed frame reached the server"
		}
		step <- struct{}{}
		if b := readN(t, conn, br, len(second)); !bytes.Equal(b, second) {
			errs <- "second frame corrupted"
		}
		close(errs)
	})
	if err := sc.Submit(sub(1)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(sub(2)); err != nil {
		t.Fatal(err)
	}
	<-step
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	for e := range errs {
		t.Error(e)
	}
}

// Flush only hands frames to the writer: a caller that flushes after
// every submission keeps going while the server is not reading, as long
// as the pending buffer has room.
func TestStreamFlushDoesNotWaitOnPeer(t *testing.T) {
	release := make(chan struct{})
	sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
		conn.SetReadBuffer(4 << 10)
		<-release
	})
	defer close(release)
	sc.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	frame := len(wire.AppendSubmit(nil, sub(1)))
	done := make(chan error, 1)
	go func() {
		// Just under one pending buffer in all: far more than the shrunk
		// socket buffers hold, never enough to make Submit wait.
		for i := uint64(1); i <= uint64(streamPendingMax/frame)-1; i++ {
			if err := sc.Submit(sub(i)); err != nil {
				done <- err
				return
			}
			if err := sc.Flush(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		sc.Close()
		t.Fatal("Submit+Flush blocked on a server that is not reading")
	}
}

// Against a server that never reads, pending bytes stop growing near
// streamPendingMax: Submit waits instead, and Close releases it.
func TestStreamPendingBounded(t *testing.T) {
	release := make(chan struct{})
	sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
		conn.SetReadBuffer(4 << 10)
		<-release
	})
	defer close(release)
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= 1<<20; i++ {
			if err := sc.Submit(sub(i)); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	// Wait until Submit has been stuck for a while.
	for last := int64(-1); last != sent.Load(); {
		last = sent.Load()
		select {
		case err := <-done:
			t.Fatalf("a million submissions went through a stalled connection (err %v)", err)
		case <-time.After(300 * time.Millisecond):
		}
	}
	frame := len(wire.AppendSubmit(nil, sub(1)))
	sc.wmu.Lock()
	pending := len(sc.pending)
	sc.wmu.Unlock()
	if pending > streamPendingMax+frame {
		t.Errorf("%d bytes pending against a stalled server, want at most %d", pending, streamPendingMax+frame)
	}
	start := time.Now()
	sc.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Errorf("Submit blocked at Close returned %v, want net.ErrClosed", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v against a stalled server", d)
	}
}

// A failed write is the stream's error from then on: Submit and Flush
// return it, Results closes and Err reports it.
func TestStreamWriteErrorSticky(t *testing.T) {
	sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
		conn.SetLinger(0) // close with a reset: the client's next write fails
	})
	var werr error
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(1); werr == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatal("writes to a reset connection kept succeeding")
		}
		if werr = sc.Submit(sub(i)); werr == nil {
			werr = sc.Flush()
		}
		time.Sleep(time.Millisecond)
	}
	if errors.Is(werr, net.ErrClosed) {
		t.Fatalf("write error reads as a closed connection: %v", werr)
	}
	if err := sc.Submit(sub(1)); err != werr {
		t.Errorf("Submit after the write error: %v, want %v", err, werr)
	}
	if err := sc.Flush(); err != werr {
		t.Errorf("Flush after the write error: %v, want %v", err, werr)
	}
	select {
	case <-drained(sc):
	case <-time.After(10 * time.Second):
		t.Fatal("Results still open after a write error")
	}
	if err := sc.Err(); err != werr {
		t.Errorf("Err() = %v, want the write error %v", err, werr)
	}
}

// drained is closed once sc.Results has closed.
func drained(sc *StreamClient) chan struct{} {
	done := make(chan struct{})
	go func() {
		for range sc.Results() {
		}
		close(done)
	}()
	return done
}

// Close ends both of the stream's goroutines, also while other
// goroutines submit and flush; Submit and Flush then return an error.
func TestStreamCloseEndsWriter(t *testing.T) {
	base := runtime.NumGoroutine()
	served := make(chan struct{})
	func() {
		sc := fakeStream(t, func(conn *net.TCPConn, br *bufio.Reader) {
			io.Copy(io.Discard, br)
			close(served)
		})
		var wg, running sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			running.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); sc.Submit(sub(i)) == nil && sc.Flush() == nil; i++ {
					if i == 100 {
						running.Done()
					}
				}
			}()
		}
		running.Wait() // every submitter is mid-stream when Close comes
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		<-served
		<-drained(sc)
		if err := sc.Submit(sub(1)); err == nil {
			t.Error("Submit after Close succeeded")
		}
		if err := sc.Flush(); err == nil {
			t.Error("Flush after Close succeeded")
		}
	}()
	for start := time.Now(); runtime.NumGoroutine() > base; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d goroutines after Close, %d before the stream", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
