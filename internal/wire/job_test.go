package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// oldSubmit is the POST /v1/jobs body as internal/server declared it
// before DecodeJob existed, decoded the way its handler decoded it: the
// oracle DecodeJob must agree with on every input.
type oldSubmit struct {
	Workload string `json:"workload"`
	Params   struct {
		Size        int    `json:"size,omitempty"`
		Seed        uint64 `json:"seed,omitempty"`
		N           int    `json:"n,omitempty"`
		Generations int    `json:"generations,omitempty"`
	} `json:"params"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	Async      bool  `json:"async,omitempty"`
}

func oldDecode(body []byte) (oldSubmit, error) {
	var v oldSubmit
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

// jobBodies is the differential table and the fuzz corpus.
var jobBodies = []string{
	// Canonical: every key order, optional members, whitespace.
	`{"workload":"noop","params":{"seed":7}}`,
	`{"workload":"mix","params":{"n":16,"size":4096,"seed":3},"deadline_ms":250,"async":true}`,
	`{"async":false,"deadline_ms":0,"params":{"generations":8,"n":0,"seed":0,"size":0},"workload":"ga"}`,
	`{"params":{},"workload":""}`,
	`{"deadline_ms":5,"workload":"sha1"}`,
	`{}`,
	" \t\r\n{ \"workload\" : \"noop\" , \"params\" : { \"seed\" : 1 , \"n\" : 2 } , \"async\" : true } \n",
	`{"workload":"a b/c:d~` + "\x7f" + `"}`,
	// Integers: zero, negative, the edges of each type, past them.
	`{"params":{"size":-1,"n":-0,"generations":-9223372036854775808},"deadline_ms":-5}`,
	`{"params":{"size":9223372036854775807,"seed":18446744073709551615},"deadline_ms":9223372036854775807}`,
	`{"params":{"size":9223372036854775808}}`,
	`{"params":{"size":-9223372036854775809}}`,
	`{"params":{"size":18446744073709551616}}`,
	`{"params":{"seed":18446744073709551616}}`,
	`{"params":{"seed":99999999999999999999999999}}`,
	`{"params":{"seed":-1}}`,
	`{"params":{"seed":-0}}`,
	`{"deadline_ms":9223372036854775808}`,
	`{"params":{"n":01}}`,
	`{"params":{"n":00}}`,
	`{"params":{"n":-}}`,
	`{"params":{"n":+1}}`,
	`{"params":{"n":1.0}}`,
	`{"params":{"n":1e2}}`,
	`{"params":{"n":1.5}}`,
	`{"params":{"n":"1"}}`,
	`{"params":{"n":1x}}`,
	`{"deadline_ms":2.5}`,
	// Strings the scanner must not own.
	`{"workload":"\u006eoop"}`,
	`{"workload":"a\"b"}`,
	`{"workload":"a\\"}`,
	`{"workload":"tab\there"}`,
	"{\"workload\":\"raw\ttab\"}",
	"{\"workload\":\"nul\x00\"}",
	`{"workload":"héllo"}`,
	"{\"workload\":\"bad\xff\xfeutf8\"}",
	`{"\u0077orkload":"noop","asyn\u0063":true}`,
	`{"workload":"\ud800"}`,
	// Keys: unknown, repeated, case-folded, at the wrong level.
	`{"workload":"noop","extra":1}`,
	`{"workload":"noop","extra":{"a":[1,2,{"b":null}]}}`,
	`{"workload":"a","workload":"b"}`,
	`{"params":{"seed":1},"params":{"n":2}}`,
	`{"params":{"seed":1,"seed":2}}`,
	`{"Workload":"noop"}`,
	`{"WORKLOAD":"noop","PARAMS":{"SEED":4},"Async":true,"Deadline_MS":3}`,
	`{"workload":"x","WORKLOAD":"y"}`,
	`{"size":5,"seed":6}`,
	`{"params":{"workload":"x","async":true}}`,
	`{"params":{"params":{"seed":1}}}`,
	`{"params":{"seed":1,"junk":[{"x":1}],"n":2}}`,
	`{"":1}`,
	// null, wrong types.
	`null`,
	`{"workload":null,"params":null,"deadline_ms":null,"async":null}`,
	`{"params":{"seed":null}}`,
	`{"workload":5}`,
	`{"workload":"heavy","async":"yes"}`,
	`{"params":[]}`,
	`{"params":7}`,
	`{"async":1}`,
	`{"async":True}`,
	`{"async":tru}`,
	`{"async":truefalse}`,
	`[]`,
	`"noop"`,
	`7`,
	`true`,
	// Truncated, malformed, trailing.
	``,
	` `,
	`{`,
	`{"`,
	`{"workload`,
	`{"workload"`,
	`{"workload":`,
	`{"workload":"no`,
	`{"workload":"noop"`,
	`{"workload":"noop",`,
	`{"workload":"noop",}`,
	`{"workload":"noop"}}`,
	`{"workload":"noop"} x`,
	`{"workload":"noop"}{"workload":"other"}`,
	`{"workload":"noop"} {`,
	`{,}`,
	`{"workload" "noop"}`,
	`{"workload":"noop" "async":true}`,
	`{"params":{"seed":1}`,
	`{"params":{"seed":1,}}`,
	`{"deadline_ms":5"async":true}`,
	`{'workload':'noop'}`,
	`{workload:"noop"}`,
	"\ufeff{}",
	"{\"workload\":\"noop\"}\x00",
	"{\v}",
}

// checkDecodeJob holds DecodeJob to the oracle on one body: the same
// verdict, and on acceptance the same value in every field.
func checkDecodeJob(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oldDecode(body)
	got, gotErr := DecodeJob(body)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: DecodeJob error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	// With an error too: the gate routes on whatever was filled.
	if string(got.Workload) != want.Workload || got.Params.Size != want.Params.Size || got.Params.Seed != want.Params.Seed ||
		got.Params.N != want.Params.N || got.Params.Generations != want.Params.Generations ||
		got.DeadlineMS != want.DeadlineMS || got.Async != want.Async {
		t.Fatalf("%q: DecodeJob %+v (workload %q), encoding/json %+v", body, got, got.Workload, want)
	}
}

func TestDecodeJobMatchesEncodingJSON(t *testing.T) {
	for _, body := range jobBodies {
		checkDecodeJob(t, []byte(body))
	}
	// The table must exercise both sides of the choice.
	var req JobRequest
	for body, owned := range map[string]bool{jobBodies[1]: true, jobBodies[6]: true, `{"workload":"\u006eoop"}`: false, `{"Workload":"noop"}`: false} {
		c := cursor{b: []byte(body)}
		if got := c.object(&req, false) && c.atEnd(); got != owned {
			t.Errorf("%q: scanner owned = %v, want %v", body, got, owned)
		}
	}
}

func FuzzDecodeJob(f *testing.F) {
	for _, body := range jobBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeJob(t, body) })
}

// responses are synchronous job answers as watsd writes them, and ones
// it does not write; internal/server checks its encoder's real output.
var responses = []string{
	`{"id":"j000001","workload":"noop","status":"completed","queue_wait_ms":0.012,"exec_ms":0.003,"energy_j":1e-05,"result":null}`,
	`{"id":"j000001","workload":"sha1","status":"completed","queue_wait_ms":0,"exec_ms":1.5e+06,"result":"ab\"cd"}` + "\n",
	`{"id":"j1234567","workload":"a\"b\\","status":"completed","queue_wait_ms":1e-05,"exec_ms":12}`,
	`{"id":"j000002","workload":"noop","status":"completed","queue_wait_ms":0.5,"result":{"exec_ms":9}}`,
	`{"id":"j000003","workload":"noop","status":"failed","queue_wait_ms":0.5,"error":"boom"}`,
	`{"result":[1,{"exec_ms":4}],"exec_ms":2.5,"status":"completed"}`,
	`{"exec_ms":7}`,
	` { "id" : "x" , "exec_ms" : -0.25 } `,
	`{"EXEC_MS":3}`,
	`{"exec_ms":1,"exec_ms":2}`,
	`{"exec_ms":null}`,
	`{"exec_ms":"3"}`,
	`{"exec_ms":01}`,
	`{"exec_ms":.5}`,
	`{"exec_ms":1.}`,
	`{"exec_ms":1e}`,
	`{"exec_ms":1e400}`,
	`{"id":"j000001","workload":"héllo","exec_ms":3}`,
	`{"id":5,"exec_ms":3}`,
	`{}`,
	`[]`,
	`null`,
	``,
	`{"id":"x"`,
	`{"id":"x","exec_ms":`,
}

func TestPeekExecMSMatchesEncodingJSON(t *testing.T) {
	for _, body := range responses {
		var want struct {
			ExecMS float64 `json:"exec_ms"`
		}
		wantOK := json.Unmarshal([]byte(body), &want) == nil
		got, ok := PeekExecMS([]byte(body))
		// A repeated exec_ms is the one place a peek and a full decode
		// part: the peek stops at the first.
		if body == `{"exec_ms":1,"exec_ms":2}` {
			want.ExecMS = 1
		}
		if ok != wantOK || (ok && got != want.ExecMS) {
			t.Errorf("%q: PeekExecMS = %v, %v; encoding/json = %v, %v", body, got, ok, want.ExecMS, wantOK)
		}
	}
}

func TestCanonicalFormsDoNotAllocate(t *testing.T) {
	reqBody := []byte(`{"workload":"mix","params":{"n":16,"size":4096,"seed":18446744073709551615},"deadline_ms":250,"async":true}`)
	respBody := []byte(responses[0])
	classes := map[string]string{"mix": "mix"}
	if n := testing.AllocsPerRun(100, func() {
		req, err := DecodeJob(reqBody)
		if _, known := classes[string(req.Workload)]; err != nil || !known || req.Params.N != 16 || !req.Async {
			t.Fatalf("DecodeJob = %+v, %v", req, err)
		}
	}); n != 0 {
		t.Errorf("DecodeJob allocates %v objects on the canonical form, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, ok := PeekExecMS(respBody); !ok || v != 0.003 {
			t.Fatalf("PeekExecMS = %v, %v", v, ok)
		}
	}); n != 0 {
		t.Errorf("PeekExecMS allocates %v objects on the canonical form, want 0", n)
	}
}

func TestReadBody(t *testing.T) {
	big := strings.Repeat("x", 3000)
	for _, hint := range []int64{-1, 0, 10, 3000, 1 << 40} {
		for name, r := range map[string]io.Reader{
			"whole":   strings.NewReader(big),
			"bytes":   iotest.OneByteReader(strings.NewReader(big)),
			"lateEOF": iotest.DataErrReader(strings.NewReader(big)),
		} {
			got, err := ReadBody(nil, r, hint)
			if err != nil || string(got) != big {
				t.Errorf("hint %d, %s reader: %d bytes, err %v", hint, name, len(got), err)
			}
		}
	}
	// A retained buffer is reused, and a read error comes back with what
	// was read before it.
	buf := make([]byte, 0, 4096)
	got, err := ReadBody(buf, iotest.TimeoutReader(iotest.HalfReader(strings.NewReader(big))), 3000)
	if err != iotest.ErrTimeout || len(got) == 0 || &got[0] != &buf[:1][0] {
		t.Errorf("failing reader: %d bytes, err %v, reused %v", len(got), err, len(got) > 0 && &got[0] == &buf[:1][0])
	}
	if n := testing.AllocsPerRun(50, func() {
		if got, err := ReadBody(buf, strings.NewReader(big), 3000); err != nil || len(got) != 3000 {
			t.Fatal(len(got), err)
		}
	}); n > 1 { // the strings.Reader
		t.Errorf("ReadBody into a large enough buffer allocates %v objects", n)
	}
}
