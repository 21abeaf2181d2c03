// Package harness is the one in-process stack bring-up, open-loop load
// driver, latency tally and report writer under cmd/watsaccept, and the
// arrival process cmd/watsload sends. A scenario declares nodes, an
// optional gate and an arrival schedule; the harness runs them over real
// loopback HTTP and, at Close, checks job conservation at every layer.
package harness

import (
	"net"
	"net/http"
	"time"

	"wats/internal/amc"
	"wats/internal/obs"
	wrt "wats/internal/runtime"
	"wats/internal/server"
)

// NodeConfig is one backend: the machine shape it reports (the node
// goes by the shape's name) and the jobs it serves. The rest is the same
// for every scenario — WATS policy, lock-free deques, 16k queued tasks.
// A node serving the built-in kernels emulates its machine's speeds, as
// watsd does; one serving a scenario's own workloads does not, so wall
// time is the workload's own and a scenario that wants a slow machine
// bakes the slowdown into its workloads.
type NodeConfig struct {
	Arch        *amc.Arch
	MaxInflight int
	Workloads   map[string]server.Workload      // nil = server.Builtins()
	Wrap        func(http.Handler) http.Handler // nil = the job API as is
	Obs         *obs.Tracer                     // nil = no decision ledger
}

// Node is one live watsd equivalent. Runtime and server stay up until
// the cluster closes; the listener can die and come back (StopHTTP,
// StartHTTP), which is a crashed process on a healthy machine as far as
// a gate can tell.
type Node struct {
	Name string
	RT   *wrt.Runtime
	Srv  *server.Server
	Addr string

	handler http.Handler
	hs      *http.Server
}

func startNode(cfg NodeConfig) (*Node, error) {
	rt, err := wrt.New(wrt.Config{
		Arch:                  cfg.Arch,
		Policy:                "WATS",
		Seed:                  7,
		LockFree:              true,
		DisableSpeedEmulation: cfg.Workloads != nil,
		MaxQueuedTasks:        1 << 14,
		Obs:                   cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Runtime: rt, MaxInflight: cfg.MaxInflight, Workloads: cfg.Workloads})
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	n := &Node{Name: cfg.Arch.Name, RT: rt, Srv: srv, handler: srv.Handler()}
	if cfg.Wrap != nil {
		n.handler = cfg.Wrap(n.handler)
	}
	if err := n.StartHTTP(); err != nil {
		rt.Shutdown()
		return nil, err
	}
	return n, nil
}

// StartHTTP binds the node's listener: an ephemeral loopback port the
// first time, the same address ever after, so a restarted node is where
// its gate expects it. A just-closed port frees at once, but the kernel
// gets a second to lose a rebind race.
func (n *Node) StartHTTP() error {
	addr := n.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	for i := 0; err != nil && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return err
	}
	n.Addr = ln.Addr().String()
	n.hs = &http.Server{Handler: n.handler}
	go n.hs.Serve(ln)
	return nil
}

// StopHTTP closes the listener and every live connection.
func (n *Node) StopHTTP() { n.hs.Close() }
