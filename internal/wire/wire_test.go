package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var (
	submits = []Submit{
		{},
		{ID: 1, Workload: 3, DeadlineMS: 250, Size: 4096, Seed: 42, N: 16, Generations: 8},
		{ID: math.MaxUint64, Workload: 255, DeadlineMS: math.MinInt64, Size: -1, Seed: math.MaxUint64, N: math.MaxInt64, Generations: -7},
	}
	results = []Result{
		{},
		{ID: 7, Outcome: OutcomeOK, QueueWaitUS: 12, ExecUS: 3400},
		{ID: 8, Outcome: OutcomeShed, RetryAfterMS: 1000, Err: "at max in-flight jobs (64)"},
		{ID: math.MaxUint64, Outcome: OutcomePanicked, QueueWaitUS: -1, ExecUS: math.MaxInt64, Err: strings.Repeat("é", 300)},
	}
	hellos = [][]HelloEntry{
		{},
		{{ID: 0, Name: "noop", Class: "noop"}},
		{{ID: 0, Name: "bzip2", Class: "compress"}, {ID: 1, Name: "", Class: ""}, {ID: 255, Name: strings.Repeat("n", 255), Class: strings.Repeat("c", 255)}},
	}
)

// frames is one encoded frame per value above: the round-trip corpus.
func frames() [][]byte {
	var out [][]byte
	for i := range submits {
		out = append(out, AppendSubmit(nil, &submits[i]))
	}
	for i := range results {
		out = append(out, AppendResult(nil, &results[i]))
	}
	for _, h := range hellos {
		out = append(out, AppendHello(nil, h))
	}
	return out
}

// readOne pulls the single frame out of an encoded buffer.
func readOne(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	typ, payload, _, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("ReadFrame left bytes of a single frame unread")
	}
	return typ, payload
}

func TestRoundTrips(t *testing.T) {
	for _, want := range submits {
		typ, p := readOne(t, AppendSubmit(nil, &want))
		got := Submit{ID: 99, Seed: 99} // stale fields must be overwritten
		if err := ParseSubmit(p, &got); err != nil || typ != FrameSubmit || got != want {
			t.Errorf("submit %+v: type %d, got %+v, err %v", want, typ, got, err)
		}
	}
	for _, want := range results {
		typ, p := readOne(t, AppendResult(nil, &want))
		got := Result{Err: "stale"}
		if err := ParseResult(p, &got); err != nil || typ != FrameResult || got != want {
			t.Errorf("result %+v: type %d, got %+v, err %v", want, typ, got, err)
		}
	}
	for _, want := range hellos {
		typ, p := readOne(t, AppendHello(nil, want))
		got, err := ParseHello(p)
		if err != nil || typ != FrameHello || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("hello %+v: type %d, got %+v, err %v", want, typ, got, err)
		}
	}
}

// Appending extends the caller's buffer, and frames laid end to end read
// back one at a time into a reused buffer.
func TestFramesPipeline(t *testing.T) {
	var stream []byte
	for _, f := range frames() {
		stream = append(stream, f...)
	}
	if got := AppendSubmit(append([]byte(nil), stream...), &submits[1]); !bytes.HasPrefix(got, stream) {
		t.Fatal("AppendSubmit clobbered the buffer it was given")
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, f := range frames() {
		typ, payload, grown, err := ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != f[4] || !bytes.Equal(payload, f[5:]) {
			t.Fatalf("frame %d: type %d payload %x, want type %d payload %x", i, typ, payload, f[4], f[5:])
		}
		buf = grown
	}
	if _, _, _, err := ReadFrame(br, buf); err == nil {
		t.Fatal("ReadFrame past the last frame succeeded")
	}
}

// parse dispatches a payload (type byte first) to its parser.
func parse(payload []byte) error {
	switch payload[0] {
	case FrameSubmit:
		return ParseSubmit(payload[1:], new(Submit))
	case FrameResult:
		return ParseResult(payload[1:], new(Result))
	default:
		_, err := ParseHello(payload[1:])
		return err
	}
}

// Every strict prefix of a valid payload parses without panicking, and
// is refused whenever it is shorter than the frame's fixed part. A
// submit is all fixed part; a hello declares its entry count up front,
// so no strict prefix of one is complete either.
func TestTruncatedPayloads(t *testing.T) {
	fixed := map[byte]int{FrameSubmit: submitLen, FrameResult: resultHead, FrameHello: 1 + 2}
	for _, f := range frames() {
		payload := f[4:]
		for n := 1; n < len(payload); n++ {
			err := parse(payload[:n])
			if err == nil && (n < fixed[payload[0]] || payload[0] != FrameResult) {
				t.Errorf("type %d: %d of %d payload bytes parsed without error", payload[0], n, len(payload))
			}
		}
		if err := parse(payload); err != nil {
			t.Errorf("type %d: full payload refused: %v", payload[0], err)
		}
	}
	if err := ParseSubmit(make([]byte, submitLen), new(Submit)); err == nil {
		t.Error("submit payload one byte too long parsed without error")
	}
}

// A length prefix out of range is refused from the 4 header bytes alone:
// nothing is allocated for it and the body is never waited for.
func TestReadFrameRefusesLengthBeforeAllocating(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, math.MaxUint32} {
		hdr := binary.BigEndian.AppendUint32(nil, n)
		_, _, buf, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), nil)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length %d: err %v, want out of range", n, err)
		}
		if cap(buf) != 0 {
			t.Errorf("length %d: %d bytes allocated for a refused frame", n, cap(buf))
		}
	}
	// The largest legal frame is accepted.
	frame := binary.BigEndian.AppendUint32(nil, MaxFrame)
	frame = append(frame, make([]byte, MaxFrame)...)
	frame[4] = FrameResult
	if typ, payload, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil); err != nil || typ != FrameResult || len(payload) != MaxFrame-1 {
		t.Errorf("MaxFrame frame: type %d, %d payload bytes, err %v", typ, len(payload), err)
	}
	// A frame cut short is an error, not a short payload.
	cut := AppendSubmit(nil, &submits[1])
	if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(cut[:len(cut)-1])), nil); err == nil {
		t.Error("truncated frame read without error")
	}
}

// A hello's entry count is a claim, not a reservation: the table is
// sized by what the payload can hold.
func TestParseHelloSizesByPayload(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	entries, err := ParseHello([]byte{0xff, 0xff, 0})
	runtime.ReadMemStats(&after)
	if err == nil || entries != nil {
		t.Fatalf("3-byte hello claiming 65535 entries: %d entries, err %v", len(entries), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 512 {
		t.Errorf("refusing a 3-byte hello allocated %d bytes", got)
	}
}

// FuzzParse feeds arbitrary payloads to the three parsers. None may
// panic, and whatever one accepts must encode back to the bytes it was
// parsed from (a hello ignores what follows its declared entries).
func FuzzParse(f *testing.F) {
	for _, frame := range frames() {
		f.Add(frame[4:])
		f.Add(frame[4 : len(frame)-1])
	}
	f.Add([]byte{FrameHello, 0xff, 0xff, 0, 200})
	f.Add([]byte{FrameHello, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return
		}
		body := payload[1:]
		var s Submit
		if ParseSubmit(body, &s) == nil {
			if again := AppendSubmit(nil, &s); !bytes.Equal(again[5:], body) {
				t.Fatalf("submit %x re-encodes as %x", body, again[5:])
			}
		}
		var r Result
		if ParseResult(body, &r) == nil {
			if again := AppendResult(nil, &r); !bytes.Equal(again[5:], body) {
				t.Fatalf("result %x re-encodes as %x", body, again[5:])
			}
		}
		if entries, err := ParseHello(body); err == nil {
			if again := AppendHello(nil, entries); !bytes.HasPrefix(body, again[5:]) {
				t.Fatalf("hello %x re-encodes as %x", body, again[5:])
			}
		}
		// Framed, the same bytes come back out of ReadFrame untouched.
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		typ, got, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if len(payload) > MaxFrame {
			if err == nil {
				t.Fatalf("%d-byte frame accepted", len(payload))
			}
		} else if err != nil || typ != payload[0] || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame: type %d payload %x err %v, want type %d payload %x", typ, got, err, payload[0], body)
		}
	})
}
