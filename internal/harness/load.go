package harness

import (
	"bytes"
	"io"
	"sort"
	"sync"
	"time"

	"wats/internal/rng"
)

// Stream is one class of open-loop traffic: the POST /v1/jobs body its
// arrivals carry.
type Stream struct {
	Class string
	Body  []byte
}

// Phase is one stretch of a load profile: Rates[i] arrivals a second on
// stream i, for Dur.
type Phase struct {
	Dur   time.Duration
	Rates []float64
}

// Arrival is one job the schedule will send, At after the start. Steady
// arrivals fall outside the ramp at the start of their phase.
type Arrival struct {
	Stream
	At     time.Duration
	Steady bool
}

// Schedule is the arrival process of every open-loop run, fixed by the
// seed before anything is sent: stream i draws exponential gaps from
// rng.New(seed+i) and accumulates them, starting over at each phase
// boundary (the draw that overshoots a phase is dropped); the streams
// are merged by time, ties to the lower stream index.
func Schedule(seed uint64, streams []Stream, phases []Phase, rampExclude time.Duration) []Arrival {
	var out []Arrival
	for i, s := range streams {
		r := rng.New(seed + uint64(i))
		var start time.Duration
		for _, ph := range phases {
			end := start + ph.Dur
			for at := start; ; {
				at += time.Duration(r.ExpFloat64() / ph.Rates[i] * float64(time.Second))
				if at > end {
					break
				}
				out = append(out, Arrival{Stream: s, At: at, Steady: at >= start+rampExclude})
			}
			start = end
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// Sample is one job as its sender saw it. Code is the HTTP status, or
// -1 when no response came back; Lat runs from the actual send.
type Sample struct {
	Class  string
	SentAt time.Duration
	Code   int
	Lat    time.Duration
	Steady bool
}

// OpenLoop sends the arrivals to the cluster at their due times, one
// goroutine per job in flight so a slow response never delays the next
// send, and returns one sample per arrival, in schedule order.
func (c *Cluster) OpenLoop(arrivals []Arrival) []Sample {
	out := make([]Sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		time.Sleep(time.Until(start.Add(a.At)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Sample{Class: a.Class, SentAt: a.At, Code: -1, Steady: a.Steady}
			t0 := time.Now()
			if resp, err := c.client.Post(c.URL+"/v1/jobs", "application/json", bytes.NewReader(a.Body)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.Code, s.Lat = resp.StatusCode, time.Since(t0)
			}
			out[i] = s
		}()
	}
	wg.Wait()
	c.Account(Fold(out, nil))
	return out
}
