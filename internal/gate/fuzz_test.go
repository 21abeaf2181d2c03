package gate

import (
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"

	"wats/internal/client"
)

// FuzzParseScorers: ParseScorers never panics, and a weight map that both
// it and Policy.validate accept has only finite positive weights — the
// gate encodes them in /v1/gate/table, and JSON has no NaN or Inf.
func FuzzParseScorers(f *testing.F) {
	for _, s := range []string{
		"class-affinity:3,queue-depth:2,health:1,ejection:1", "health, queue-depth:0.5",
		"class-affinity:NaN,queue-depth:+Inf", "health:-1", "health:0x1p-4", "health:1e309",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseScorers(s)
		if err != nil || (Policy{Kind: PolicyWeighted, Weights: w}).validate() != nil {
			return
		}
		for name, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("ParseScorers(%q) + validate accepted %s:%v", s, name, v)
			}
		}
	})
}

// FuzzPollID: whatever decoded path a poll carries, the only request the
// gate sends backend "a" is GET /v1/jobs/<id> — <id> exactly the part of
// the gate-scoped "a.<id>" after the dot, one path segment of
// [A-Za-z0-9_-] — so no poll reaches another backend endpoint or carries
// a query.
func FuzzPollID(f *testing.F) {
	for _, s := range []string{
		"a.j000007", "a.x/../../stats", "a.j1?x=1", "a.j1#f", "a.", "a..", "a.j1/", "a.%2e%2e", "ghost.j1", "j1", "a.j 1",
	} {
		f.Add(s)
	}
	var (
		mu   sync.Mutex
		seen []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.RequestURI)
		mu.Unlock()
		http.NotFound(w, r)
	}))
	f.Cleanup(srv.Close)
	cl, err := client.New(client.Config{BaseURL: srv.URL, Breaker: client.BreakerConfig{Threshold: -1}})
	if err != nil {
		f.Fatal(err)
	}
	g := &Gate{backends: []*backend{{name: "a", cl: cl}}}
	forwarded := regexp.MustCompile(`^GET /v1/jobs/([A-Za-z0-9_-]+)$`)
	f.Fuzz(func(t *testing.T, id string) {
		mu.Lock()
		seen = seen[:0]
		mu.Unlock()
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL.Path = "/v1/jobs/" + id
		g.handlePoll(httptest.NewRecorder(), req)
		mu.Lock()
		defer mu.Unlock()
		for _, s := range seen {
			if m := forwarded.FindStringSubmatch(s); m == nil || "a."+m[1] != id {
				t.Fatalf("poll of %q forwarded %q", id, s)
			}
		}
	})
}
