// The JSON side of the protocol: the POST /v1/jobs request and the
// synchronous response it gets, as they cross a process boundary on the
// unary path (client → gate → watsd and back). Both shapes are fixed, so
// both get a strict scanner over the form their writers actually emit;
// whatever a scanner does not own is handed, unchanged, to encoding/json,
// which stays the definition of what is accepted and how a rejection
// reads. The choice is made from the bytes, never from a setting.
package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// MaxBody bounds one JSON body, request or response, in bytes.
const MaxBody = 1 << 20

// Params are the per-job knobs of a submission (server.Params, field for
// field).
type Params struct {
	Size        int    `json:"size"`
	Seed        uint64 `json:"seed"`
	N           int    `json:"n"`
	Generations int    `json:"generations"`
}

// JobRequest is one decoded POST /v1/jobs body.
type JobRequest struct {
	// Workload aliases the decoded body whenever the scanner owned it, so
	// it is valid only as long as the body is.
	Workload   []byte
	Params     Params
	DeadlineMS int64
	Async      bool
}

// submitRequest is what encoding/json decodes when the scanner passes.
// It keeps the name of the server type it mirrors because decode errors
// quote it ("Go struct field submitRequest.params.size of type int").
type submitRequest struct {
	Workload   string `json:"workload"`
	Params     Params `json:"params"`
	DeadlineMS int64  `json:"deadline_ms"`
	Async      bool   `json:"async"`
}

// DecodeJob decodes a POST /v1/jobs body. A body in canonical form —
// one object of exact-case known keys, each at most once and in any
// order, unescaped ASCII strings, plain integers, true/false, JSON
// whitespace — is scanned in one pass without allocating. Anything else
// (escapes, unknown, repeated or case-folded keys, null, floats,
// out-of-range integers, trailing bytes, malformed input) is decoded by
// a json.Decoder exactly as watsd always has, so what is accepted, what
// is rejected and the text of every rejection are encoding/json's. With
// an error, the fields encoding/json had filled are still returned.
func DecodeJob(body []byte) (JobRequest, error) {
	var req JobRequest
	c := cursor{b: body}
	if c.object(&req, false) && c.atEnd() {
		return req, nil
	}
	var v submitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return JobRequest{Workload: []byte(v.Workload), Params: v.Params, DeadlineMS: v.DeadlineMS, Async: v.Async}, err
}

// PeekExecMS returns the exec_ms of a synchronous job response, false
// when the body is not a JSON object. It scans the members watsd's
// encoder writes ahead of exec_ms (id, workload, status, queue_wait_ms)
// and stops at the value; a body that departs from that layout before
// exec_ms is found — including one that omits it — is decoded by
// encoding/json instead.
func PeekExecMS(body []byte) (float64, bool) {
	c := cursor{b: body}
	if c.eat('{') {
	members:
		for {
			key, ok := c.str(false)
			if !ok || !c.eat(':') {
				break
			}
			c.ws()
			switch string(key) {
			case "exec_ms":
				if v, ok := c.float(); ok {
					return v, true
				}
				break members
			case "id", "workload", "status":
				_, ok = c.str(true)
			case "queue_wait_ms":
				_, ok = c.float()
			default:
				ok = false
			}
			if !ok || !c.eat(',') {
				break
			}
		}
	}
	var out struct {
		ExecMS float64 `json:"exec_ms"`
	}
	if json.Unmarshal(body, &out) != nil {
		return 0, false
	}
	return out.ExecMS, true
}

// ReadBody reads r to its end into buf[:0], growing buf as needed, and
// returns the bytes read with the first error other than io.EOF. hint is
// the declared Content-Length (negative = unknown) and sizes a new
// buffer once; the caller bounds r.
func ReadBody(buf []byte, r io.Reader, hint int64) ([]byte, error) {
	buf = buf[:0]
	if need := int(min(hint, MaxBody)); need > cap(buf) {
		buf = make([]byte, 0, need)
	} else if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// cursor is a position in a JSON text. Every method either consumes
// what it names and reports true, or reports false, after which the
// caller gives the whole text to encoding/json.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) ws() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\t' || c.b[c.i] == '\n' || c.b[c.i] == '\r') {
		c.i++
	}
}

// eat consumes ch if it is the next byte after any whitespace.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *cursor) atEnd() bool {
	c.ws()
	return c.i == len(c.b)
}

// str consumes a string after any whitespace and returns its contents,
// which alias the text. Control and non-ASCII bytes never pass (the
// first is malformed, the second encoding/json may rewrite); a
// backslash passes only with escapes set, which is for skipping a
// value: the contents are then still escaped.
func (c *cursor) str(escapes bool) ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch < 0x20 || ch >= 0x80:
			return nil, false
		case ch == '\\':
			if !escapes {
				return nil, false
			}
			c.i++
		}
	}
	return nil, false
}

// digits consumes a run of decimal digits and returns how many.
func (c *cursor) digits() int {
	start := c.i
	for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
		c.i++
	}
	return c.i - start
}

// integer consumes a JSON integer that fits in 64 bits: its magnitude
// and sign. A fraction or exponent is left for the caller's next eat to
// stumble on.
func (c *cursor) integer() (mag uint64, neg, ok bool) {
	if c.i < len(c.b) && c.b[c.i] == '-' {
		neg = true
		c.i++
	}
	start := c.i
	n := c.digits()
	if n == 0 || (n > 1 && c.b[start] == '0') {
		return 0, false, false
	}
	for _, d := range c.b[start:c.i] {
		next := mag*10 + uint64(d-'0')
		if mag > (1<<64-1)/10 || next < mag*10 {
			return 0, false, false
		}
		mag = next
	}
	return mag, neg, true
}

// int64 consumes an integer in the int64 range.
func (c *cursor) int64() (int64, bool) {
	mag, neg, ok := c.integer()
	switch {
	case !ok || mag > 1<<63 || (mag == 1<<63 && !neg):
		return 0, false
	case neg:
		return -int64(mag), true // mag == 1<<63 wraps to MinInt64, as it should
	}
	return int64(mag), true
}

// int consumes an integer in the platform's int range.
func (c *cursor) int() (int, bool) {
	v, ok := c.int64()
	return int(v), ok && int64(int(v)) == v
}

// float consumes a number in the JSON grammar.
func (c *cursor) float() (float64, bool) {
	start := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	intStart := c.i
	if n := c.digits(); n == 0 || (n > 1 && c.b[intStart] == '0') {
		return 0, false
	}
	if c.i < len(c.b) && c.b[c.i] == '.' {
		c.i++
		if c.digits() == 0 {
			return 0, false
		}
	}
	if c.i < len(c.b) && (c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		c.i++
		if c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if c.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(c.b[start:c.i]), 64)
	return v, err == nil
}

// literal consumes true or false.
func (c *cursor) literal() (v, ok bool) {
	switch rest := c.b[c.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		c.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		c.i += 5
		return false, true
	}
	return false, false
}

// object consumes the request object (params false) or its params
// member's object (params true) into req, holding every key to its own
// level and to one appearance.
func (c *cursor) object(req *JobRequest, params bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := c.str(false)
		if !ok || !c.eat(':') {
			return false
		}
		c.ws()
		var bit uint
		switch k := string(key); {
		case !params && k == "workload":
			bit = 1
			req.Workload, ok = c.str(false)
		case !params && k == "params":
			bit = 2
			ok = c.object(req, true)
		case !params && k == "deadline_ms":
			bit = 4
			req.DeadlineMS, ok = c.int64()
		case !params && k == "async":
			bit = 8
			req.Async, ok = c.literal()
		case params && k == "size":
			bit = 1
			req.Params.Size, ok = c.int()
		case params && k == "seed":
			bit = 2
			var neg bool
			req.Params.Seed, neg, ok = c.integer()
			ok = ok && !neg
		case params && k == "n":
			bit = 4
			req.Params.N, ok = c.int()
		case params && k == "generations":
			bit = 8
			req.Params.Generations, ok = c.int()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !c.eat(',') {
			return c.eat('}')
		}
	}
}
