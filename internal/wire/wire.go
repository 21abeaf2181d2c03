// Package wire is the length-prefixed binary protocol for the
// persistent job stream (server /v1/stream, client DialStream,
// watsload -mode stream). One long-lived TCP connection carries
// pipelined submissions and out-of-order results, so steady-state job
// traffic pays no per-request HTTP or JSON cost — and, because every
// frame is encoded into and parsed from caller-owned buffers, no
// per-job allocation either.
//
// Framing: each frame is a 4-byte big-endian payload length followed by
// the payload; the first payload byte is the frame type. The connection
// starts life as an HTTP GET with "Upgrade: wats-stream/1"; the server
// answers 101 Switching Protocols and immediately sends a HELLO frame
// carrying the workload table (name/class per numeric id), after which
// the client pipelines SUBMIT frames and the server returns one RESULT
// frame per submission, in completion order, correlated by the
// client-chosen request id.
//
// All integers are big-endian. Strings are length-prefixed within their
// frame. DESIGN.md §12 documents the layout byte by byte.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Proto is the Upgrade token for the handshake.
const Proto = "wats-stream/1"

// Frame types (first payload byte).
const (
	FrameHello  byte = 1 // server→client: workload table
	FrameSubmit byte = 2 // client→server: one job
	FrameResult byte = 3 // server→client: one outcome
)

// Result outcomes. The first four mirror the job statuses; the rest are
// admission rejections that never became jobs.
const (
	OutcomeOK       byte = 0 // completed; HTTP 200
	OutcomeExpired  byte = 1 // deadline fired; HTTP 504
	OutcomeFailed   byte = 2 // workload error or runtime shutdown; HTTP 500
	OutcomePanicked byte = 3 // poisoned by a task panic; HTTP 500
	OutcomeShed     byte = 4 // no admission headroom; HTTP 429 (see RetryAfterMS)
	OutcomeDraining byte = 5 // submitted during drain; HTTP 503
	OutcomeBadReq   byte = 6 // unknown workload id / invalid params; HTTP 400
)

// MaxFrame bounds a single frame; larger is a protocol error, not a
// resource commitment.
const MaxFrame = 1 << 20

// Submit is one job submission. Zero-valued params mean the workload's
// defaults, same as the JSON API.
type Submit struct {
	ID          uint64 // client-chosen correlation id
	Workload    uint8  // index into the HELLO table
	DeadlineMS  int64  // 0 = server default
	Size        int64
	Seed        uint64
	N           int64
	Generations int64
}

// Result is one job outcome.
type Result struct {
	ID           uint64
	Outcome      byte
	QueueWaitUS  int64
	ExecUS       int64
	RetryAfterMS int64 // only for OutcomeShed
	Err          string
}

// HelloEntry is one workload table row.
type HelloEntry struct {
	ID    uint8
	Name  string
	Class string
}

const submitLen = 1 + 8 + 1 + 8 + 8 + 8 + 8 + 8 // type + fields
const resultHead = 1 + 8 + 1 + 8 + 8 + 8        // type + fields before Err

// AppendSubmit appends a complete SUBMIT frame (length prefix included).
func AppendSubmit(buf []byte, s *Submit) []byte {
	buf = binary.BigEndian.AppendUint32(buf, submitLen)
	buf = append(buf, FrameSubmit)
	buf = binary.BigEndian.AppendUint64(buf, s.ID)
	buf = append(buf, s.Workload)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.DeadlineMS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Size))
	buf = binary.BigEndian.AppendUint64(buf, s.Seed)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.N))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Generations))
	return buf
}

// ParseSubmit decodes a SUBMIT payload (type byte already consumed).
func ParseSubmit(p []byte, s *Submit) error {
	if len(p) != submitLen-1 {
		return fmt.Errorf("wire: submit payload %d bytes, want %d", len(p), submitLen-1)
	}
	s.ID = binary.BigEndian.Uint64(p[0:])
	s.Workload = p[8]
	s.DeadlineMS = int64(binary.BigEndian.Uint64(p[9:]))
	s.Size = int64(binary.BigEndian.Uint64(p[17:]))
	s.Seed = binary.BigEndian.Uint64(p[25:])
	s.N = int64(binary.BigEndian.Uint64(p[33:]))
	s.Generations = int64(binary.BigEndian.Uint64(p[41:]))
	return nil
}

// AppendResult appends a complete RESULT frame (length prefix included).
func AppendResult(buf []byte, r *Result) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(resultHead+len(r.Err)))
	buf = append(buf, FrameResult)
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = append(buf, r.Outcome)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.QueueWaitUS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.ExecUS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.RetryAfterMS))
	return append(buf, r.Err...)
}

// ParseResult decodes a RESULT payload (type byte already consumed).
// The Err string is copied out of p, so the caller may reuse the buffer
// — the copy only allocates when Err is non-empty, i.e. off the happy
// path.
func ParseResult(p []byte, r *Result) error {
	if len(p) < resultHead-1 {
		return fmt.Errorf("wire: result payload %d bytes, want >= %d", len(p), resultHead-1)
	}
	r.ID = binary.BigEndian.Uint64(p[0:])
	r.Outcome = p[8]
	r.QueueWaitUS = int64(binary.BigEndian.Uint64(p[9:]))
	r.ExecUS = int64(binary.BigEndian.Uint64(p[17:]))
	r.RetryAfterMS = int64(binary.BigEndian.Uint64(p[25:]))
	if rest := p[33:]; len(rest) > 0 {
		r.Err = string(rest)
	} else {
		r.Err = ""
	}
	return nil
}

// AppendHello appends a complete HELLO frame (length prefix included).
func AppendHello(buf []byte, entries []HelloEntry) []byte {
	n := 1 + 2
	for _, e := range entries {
		n += 1 + 1 + len(e.Name) + 1 + len(e.Class)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, FrameHello)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.ID, byte(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = append(buf, byte(len(e.Class)))
		buf = append(buf, e.Class...)
	}
	return buf
}

// ParseHello decodes a HELLO payload (type byte already consumed).
func ParseHello(p []byte) ([]HelloEntry, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("wire: hello payload too short")
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	// An entry is at least 3 bytes, so the payload bounds what the count
	// may reserve: 3 hostile bytes must not buy 65,535 entries.
	entries := make([]HelloEntry, 0, min(n, len(p)/3))
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return nil, fmt.Errorf("wire: hello truncated at entry %d", i)
		}
		id, nameLen := p[0], int(p[1])
		p = p[2:]
		if len(p) < nameLen+1 {
			return nil, fmt.Errorf("wire: hello truncated at entry %d name", i)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		classLen := int(p[0])
		p = p[1:]
		if len(p) < classLen {
			return nil, fmt.Errorf("wire: hello truncated at entry %d class", i)
		}
		class := string(p[:classLen])
		p = p[classLen:]
		entries = append(entries, HelloEntry{ID: id, Name: name, Class: class})
	}
	return entries, nil
}

// ReadFrame reads one frame from br into buf (grown as needed),
// returning the frame type, the payload after the type byte (aliasing
// buf — valid until the next call), and the possibly-grown buffer.
func ReadFrame(br *bufio.Reader, buf []byte) (byte, []byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}
