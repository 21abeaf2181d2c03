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
	"errors"
	"io"
	"net/http"
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

// PeekExecMS returns the exec_ms of a synchronous job response (0 when
// it has none), false when encoding/json refuses the body. It scans the
// members watsd's encoder writes ahead of exec_ms (id, workload, status,
// queue_wait_ms) and stops at the value; a body that departs from that
// layout before exec_ms is found — including one that omits it — is
// decoded by encoding/json instead.
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

// Bounded returns the body of r as a reader that yields at most MaxBody
// bytes. A declared length within the bound needs no second guard, since
// net/http never yields more than was declared; any other body is read
// through http.MaxBytesReader, which fails the read that runs past the
// bound with the error BodyErrorStatus maps to 413.
func Bounded(w http.ResponseWriter, r *http.Request) io.Reader {
	if r.ContentLength >= 0 && r.ContentLength <= MaxBody {
		return r.Body
	}
	return http.MaxBytesReader(w, r.Body, MaxBody)
}

// BodyErrorStatus is the status that answers a request whose Bounded
// body failed to read or decode with err: 413 when it ran past MaxBody,
// else 400.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ReadBody reads r to its end into buf[:0], growing buf as needed, and
// returns the bytes read with the first error other than io.EOF. hint is
// the declared Content-Length (negative = unknown) and sizes a new
// buffer once; the caller bounds r.
func ReadBody(buf []byte, r io.Reader, hint int64) ([]byte, error) {
	need := 512
	if hint > 0 && hint <= MaxBody { // a length past the bound is a claim, not a size
		need = int(hint)
	}
	if buf = buf[:0]; cap(buf) < need {
		buf = make([]byte, 0, need)
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

// next consumes ch if it is the next byte; eat skips whitespace first.
func (c *cursor) next(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *cursor) eat(ch byte) bool {
	c.ws()
	return c.next(ch)
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

// integer consumes an integer in the JSON grammar and returns its
// text: strconv decides whether it fits the field. A fraction or
// exponent is left for the caller's next eat to stumble on.
func (c *cursor) integer() ([]byte, bool) {
	start := c.i
	c.next('-')
	lead := c.i
	if n := c.digits(); n == 0 || (n > 1 && c.b[lead] == '0') {
		return nil, false
	}
	return c.b[start:c.i], true
}

func (c *cursor) int64() (int64, bool) {
	tok, ok := c.integer()
	v, err := strconv.ParseInt(string(tok), 10, 64)
	return v, ok && err == nil
}

func (c *cursor) int() (int, bool) {
	tok, ok := c.integer()
	v, err := strconv.ParseInt(string(tok), 10, 0)
	return int(v), ok && err == nil
}

func (c *cursor) uint64() (uint64, bool) {
	tok, ok := c.integer()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, ok && err == nil
}

// float consumes a number in the JSON grammar.
func (c *cursor) float() (float64, bool) {
	start := c.i
	if _, ok := c.integer(); !ok || (c.next('.') && c.digits() == 0) {
		return 0, false
	}
	if c.next('e') || c.next('E') {
		_ = c.next('+') || c.next('-')
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
			req.Params.Seed, ok = c.uint64()
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
