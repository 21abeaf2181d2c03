package harness

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"wats/internal/gate"
	"wats/internal/obs"
)

// Cluster is N nodes, with or without a gate in front, and the HTTP
// client that drives them.
type Cluster struct {
	Nodes []*Node
	Gate  *gate.Gate // nil: the load goes straight to Nodes[0]
	URL   string     // where the load goes

	client     *http.Client
	gateHTTP   *http.Server
	goroutines int   // before bring-up
	driver     Tally // what the load drivers counted, summed
}

// StartCluster boots the nodes and, when gcfg is not nil, a gate over
// them behind its own listener (gcfg.Backends is filled in here), then
// waits up to 2 s for the gate to see every backend ready.
func StartCluster(nodes []NodeConfig, gcfg *gate.Config) (c *Cluster, err error) {
	c = &Cluster{
		goroutines: runtime.NumGoroutine(),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
		},
	}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	for _, nc := range nodes {
		n, err := startNode(nc)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", nc.Arch.Name, err)
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.URL = "http://" + c.Nodes[0].Addr
	if gcfg == nil {
		return c, nil
	}
	cfg := *gcfg
	for _, n := range c.Nodes {
		cfg.Backends = append(cfg.Backends, gate.BackendConf{Name: n.Name, URL: "http://" + n.Addr})
	}
	if c.Gate, err = gate.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.gateHTTP = &http.Server{Handler: c.Gate.Handler()}
	go c.gateHTTP.Serve(ln)
	c.URL = "http://" + ln.Addr().String()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ready := 0
		for _, s := range c.Gate.Snapshot() {
			if s.Ready {
				ready++
			}
		}
		if ready == len(c.Nodes) {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster never became ready (%d of %d backends)", ready, len(c.Nodes))
		}
	}
}

// Account adds one load driver's counts to the cluster's driver-side
// ledger. OpenLoop does it itself; closed-loop drivers call it.
func (c *Cluster) Account(t Tally) {
	c.driver.Sent += t.Sent
	c.driver.OK += t.OK
	c.driver.Shed += t.Shed
	c.driver.Failed += t.Failed
}

// Close lets every node finish what it admitted, tears the cluster
// down, and returns one line per invariant the run broke: the rules of
// conservation below, and the goroutine count returning to what it was
// before bring-up. Whatever a scenario started on the cluster itself
// (autoscaler, samplers, stream connections) must have stopped.
func (c *Cluster) Close() []string {
	var bad []string
	var hedges uint64
	if c.gateHTTP != nil {
		c.gateHTTP.Close()
	}
	if c.Gate != nil {
		hedges = c.Gate.Defenses().Hedges
		c.Gate.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ledgers := make([]nodeLedger, len(c.Nodes))
	for i, n := range c.Nodes {
		if err := n.Srv.Drain(ctx); err != nil {
			bad = append(bad, fmt.Sprintf("quiesce: node %s still busy after 5s: %v", n.Name, err))
		}
		ledgers[i] = nodeLedger{n.Name, n.Srv.Metrics().Counters(), n.Srv.Inflight()}
		n.StopHTTP()
		n.RT.Shutdown()
	}
	bad = append(bad, conservation(ledgers, c.driver, hedges)...)

	c.client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > c.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > c.goroutines {
		bad = append(bad, fmt.Sprintf("goroutines: %d before bring-up, %d two seconds after teardown", c.goroutines, now))
	}
	return bad
}

// nodeLedger is what one node counted, read after it went quiet.
type nodeLedger struct {
	name string
	obs.JobCounters
	inflight int
}

// conservation checks that no job was lost or invented between the
// drivers and the nodes. A hedge that loses a photo finish still
// completes on its backend, so behind a hedging gate the nodes may have
// completed up to one job per hedge more than the drivers saw come
// back; without hedges the two counts are equal.
func conservation(nodes []nodeLedger, driver Tally, hedges uint64) []string {
	var bad []string
	var completed uint64
	for _, n := range nodes {
		if n.Submitted != n.Completed+n.Failed+n.Expired+n.Panicked {
			bad = append(bad, fmt.Sprintf("node-conservation: %s admitted %d != %d completed + %d failed + %d expired + %d panicked",
				n.name, n.Submitted, n.Completed, n.Failed, n.Expired, n.Panicked))
		}
		if n.inflight != 0 {
			bad = append(bad, fmt.Sprintf("node-inflight: %s still holds %d jobs", n.name, n.inflight))
		}
		completed += n.Completed
	}
	if driver.Sent != driver.OK+driver.Shed+driver.Failed {
		bad = append(bad, fmt.Sprintf("driver-conservation: %d sent != %d ok + %d shed + %d failed",
			driver.Sent, driver.OK, driver.Shed, driver.Failed))
	}
	if extra := int64(completed) - int64(driver.OK); extra < 0 || extra > int64(hedges) {
		bad = append(bad, fmt.Sprintf("cluster-conservation: nodes completed %d, drivers saw %d ok, %d hedges allow 0..%d extra",
			completed, driver.OK, hedges, hedges))
	}
	return bad
}
