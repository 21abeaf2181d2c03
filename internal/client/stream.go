// Persistent streaming mode: one long-lived connection speaking
// internal/wire frames, the client-side counterpart of the server's
// /v1/stream handler. Submissions are pipelined and results arrive on a
// channel in completion order, correlated by caller-chosen request ids —
// the caller owns the id→context bookkeeping, the stream owns the
// connection.
//
// Writes follow the server's session writer: Submit appends to a bounded
// pending buffer, Flush marks it due and wakes one writer goroutine,
// which sends every due frame in one write — one syscall per burst.
package client

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"wats/internal/wire"
)

// streamPendingMax bounds the encoded submissions a stream buffers.
const streamPendingMax = 64 << 10

// StreamClient is one wats-stream/1 connection. Submit/Flush may be
// called from multiple goroutines; Results delivers every outcome until
// the connection closes.
type StreamClient struct {
	conn net.Conn
	br   *bufio.Reader

	wmu     sync.Mutex
	space   sync.Cond     // on wmu: the writer took pending, or werr was set
	pending []byte        // encoded SUBMIT frames; pending[:due] are flushed
	due     int           // bytes the writer is to send next
	kick    chan struct{} // cap 1: wakes the writer
	werr    error         // sticky: the first write error, or net.ErrClosed after Close

	workloads map[string]uint8
	entries   []wire.HelloEntry

	results chan wire.Result
	readErr error // guarded by wmu
}

// DialStream opens a streaming connection to the client's BaseURL,
// performs the wats-stream/1 upgrade, and consumes the HELLO workload
// table. Close the returned stream to release the connection.
func (c *Client) DialStream(ctx context.Context) (*StreamClient, error) {
	u, err := url.Parse(c.cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad BaseURL: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("client: streaming requires an http BaseURL, got %q", u.Scheme)
	}
	host := u.Host
	if _, _, err := net.SplitHostPort(host); err != nil {
		host = net.JoinHostPort(host, "80")
	}
	d := net.Dialer{Timeout: c.cfg.RequestTimeout, KeepAlive: 30 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, fmt.Errorf("client: dial stream: %w", err)
	}
	sc := &StreamClient{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		kick:    make(chan struct{}, 1),
		results: make(chan wire.Result, 1024),
	}
	sc.space.L = &sc.wmu
	if err := sc.handshake(host); err != nil {
		conn.Close()
		return nil, err
	}
	go sc.readLoop()
	go sc.writeLoop()
	return sc, nil
}

func (sc *StreamClient) handshake(host string) error {
	req := "GET /v1/stream HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + wire.Proto + "\r\n\r\n"
	if _, err := io.WriteString(sc.conn, req); err != nil {
		return fmt.Errorf("client: stream handshake write: %w", err)
	}
	resp, err := http.ReadResponse(sc.br, &http.Request{Method: http.MethodGet})
	if err != nil {
		return fmt.Errorf("client: stream handshake response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return fmt.Errorf("client: stream upgrade refused: HTTP %d: %s", resp.StatusCode, body)
	}
	ft, payload, _, err := wire.ReadFrame(sc.br, make([]byte, 0, 4<<10))
	if err != nil {
		return fmt.Errorf("client: stream hello: %w", err)
	}
	if ft != wire.FrameHello {
		return fmt.Errorf("client: stream hello: unexpected frame type %d", ft)
	}
	entries, err := wire.ParseHello(payload)
	if err != nil {
		return fmt.Errorf("client: stream hello: %w", err)
	}
	sc.entries = entries
	sc.workloads = make(map[string]uint8, len(entries))
	for _, e := range entries {
		sc.workloads[e.Name] = e.ID
	}
	return nil
}

// WorkloadID resolves a workload name to its wire id from the HELLO
// table.
func (sc *StreamClient) WorkloadID(name string) (uint8, bool) {
	id, ok := sc.workloads[name]
	return id, ok
}

// Workloads returns the server's HELLO table.
func (sc *StreamClient) Workloads() []wire.HelloEntry { return sc.entries }

// Submit buffers one SUBMIT frame. Nothing reaches the server until
// Flush — pipeline a burst, then flush once; a submission left
// unflushed never produces a result, unless streamPendingMax bytes are
// pending: Submit then flushes and waits for the writer to take them.
func (sc *StreamClient) Submit(s *wire.Submit) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	for sc.werr == nil && len(sc.pending) >= streamPendingMax {
		sc.flushLocked()
		sc.space.Wait()
	}
	if sc.werr == nil {
		sc.pending = wire.AppendSubmit(sc.pending, s)
	}
	return sc.werr
}

// Flush marks every buffered submission due and wakes the writer
// goroutine; it makes no syscall.
func (sc *StreamClient) Flush() error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.werr == nil {
		sc.flushLocked()
	}
	return sc.werr
}

func (sc *StreamClient) flushLocked() {
	sc.due = len(sc.pending)
	select {
	case sc.kick <- struct{}{}:
	default:
	}
}

// writeLoop owns the connection's write side: each wake takes every due
// frame in one swap and sends them in one write. A write error fails the
// stream, which closes the connection and so ends Results.
func (sc *StreamClient) writeLoop() {
	var buf []byte
	for range sc.kick {
		sc.wmu.Lock()
		buf, sc.pending = sc.pending[:sc.due], append(buf[:0], sc.pending[sc.due:]...)
		sc.due = 0
		sc.space.Broadcast()
		sc.wmu.Unlock()
		if len(buf) == 0 {
			continue // an earlier wake already took these frames
		}
		if _, err := sc.conn.Write(buf); err != nil {
			sc.fail(err)
			return
		}
	}
}

// Results delivers outcomes in completion order. The channel closes
// when the connection does; check Err afterwards.
func (sc *StreamClient) Results() <-chan wire.Result { return sc.results }

// Err reports why the result stream ended: the write error, net.ErrClosed
// after Close, nil for a clean close (EOF: a server drain), else the read
// error. Only meaningful after Results is closed.
func (sc *StreamClient) Err() error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.werr == nil && sc.readErr == io.EOF {
		return nil
	}
	return cmp.Or(sc.werr, sc.readErr)
}

// Close tears down the connection and ends the writer goroutine; it
// never waits for the server. In-flight submissions may or may not
// execute server-side, and flushed ones not yet written are dropped; a
// graceful shutdown flushes, waits for all results on Results, then
// calls Close. Submit and Flush then return net.ErrClosed.
func (sc *StreamClient) Close() error { return sc.fail(net.ErrClosed) }

// fail makes err the stream's error unless one is already set, ends the
// writer, wakes any waiting Submit and closes the connection.
func (sc *StreamClient) fail(err error) error {
	sc.wmu.Lock()
	if sc.werr == nil {
		sc.werr = err
		close(sc.kick) // nothing sends once werr is set
	}
	sc.space.Broadcast()
	sc.wmu.Unlock()
	return sc.conn.Close()
}

func (sc *StreamClient) readLoop() {
	defer close(sc.results)
	buf := make([]byte, 0, 4<<10)
	var res wire.Result
	for {
		ft, payload, nbuf, err := wire.ReadFrame(sc.br, buf[:cap(buf)])
		buf = nbuf
		if err == nil && ft == wire.FrameResult {
			if err = wire.ParseResult(payload, &res); err == nil {
				sc.results <- res
			}
		}
		if err != nil {
			sc.wmu.Lock()
			sc.readErr = err
			sc.wmu.Unlock()
			return
		}
	}
}
