package main

import (
	"fmt"
	"net"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/frontdoor"
	"repro/internal/kvstore"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

const (
	numProviders  = 4
	segCacheBytes = 64 << 20 // the client's default segment-cache bound
)

// deployment is one running EvoStore fleet and the client handle on it.
// Providers run in this process on every fabric, so their counters and
// backends can be read directly.
type deployment struct {
	repo      *core.Repository
	providers []*provider.Provider
	cas       []*dedup.KV // hub only: the content-addressed wrappers
	listeners []net.Listener
	fabric    string
	backend   string
	replicas  int
}

// close releases the client connections and stops the TCP listeners.
func (d *deployment) close() {
	d.repo.Close()
	d.closeListeners()
}

// backendBytes sums what the providers' backends physically hold.
func (d *deployment) backendBytes() int64 {
	var n int64
	for _, p := range d.providers {
		n += int64(p.Stats().SegmentBytes)
	}
	return n
}

// openInproc builds what core.Open builds with its defaults — four
// providers on MemKV(16) with R=1, placement armed, throttling off, over
// the in-process fabric, no dedup — but by hand, so that a tracer can
// decorate the provider backends and the client's connections. With a nil
// tracer nothing is decorated.
func openInproc(tr *tracer) (*deployment, error) {
	net := rpc.NewInprocNet()
	d := &deployment{fabric: "inproc", backend: "MemKV(16)", replicas: 1}
	conns := make([]rpc.Conn, numProviders)
	for i := range conns {
		var kv kvstore.KV = kvstore.NewMemKV(16)
		if tr != nil {
			kv = wrapKV(kv, tr)
		}
		p := provider.New(i, kv)
		p.SetPlacement(numProviders, 1)
		p.SetThrottle(frontdoor.Limits{})
		srv := rpc.NewServer()
		p.Register(srv)
		addr := fmt.Sprintf("provider-%d", i)
		if err := net.Listen(addr, srv); err != nil {
			return nil, err
		}
		c, err := net.Dial(addr)
		if err != nil {
			return nil, err
		}
		d.providers = append(d.providers, p)
		conns[i] = c
	}
	if tr != nil {
		conns = wrapConns(conns, tr, kindRPC)
	}
	d.repo = core.Attach(conns, client.WithPlacement(placement.New(numProviders, 1)))
	return d, nil
}

// openHub builds four providers the way
// `evostore-server -dedup -replicas 2 -deploy-size 4` does — MemKV(16)
// under dedup.Wrap, provider.New, SetPlacement(4, 2) — serving loopback
// TCP from this process, and attaches one client through rpc.NewPool,
// resilient.WrapAll and core.Attach with client.WithReplicas(2). A tracer
// adds a kvstore decorator under dedup.Wrap and rpc.Conn decorators below
// and above resilient.WrapAll.
func openHub(tr *tracer) (*deployment, error) {
	const replicas = 2
	d := &deployment{fabric: "tcp-loopback", backend: "dedup(MemKV(16))", replicas: replicas}
	conns := make([]rpc.Conn, numProviders)
	for i := range conns {
		var kv kvstore.KV = kvstore.NewMemKV(16)
		if tr != nil {
			kv = wrapKV(kv, tr)
		}
		cas := dedup.Wrap(kv, dedup.Options{})
		p := provider.New(i, cas)
		p.SetPlacement(numProviders, replicas)
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			d.closeListeners()
			return nil, err
		}
		d.listeners = append(d.listeners, lis)
		d.providers = append(d.providers, p)
		d.cas = append(d.cas, cas)
		conns[i] = rpc.NewPool(addr, hubClients, rpc.DialTCP)
	}
	if tr != nil {
		conns = wrapConns(conns, tr, kindRPC)
	}
	conns = resilient.WrapAll(conns, resilient.Options{Retryable: proto.Retryable})
	if tr != nil {
		conns = wrapConns(conns, tr, kindResilient)
	}
	d.repo = core.Attach(conns, client.WithReplicas(replicas))
	return d, nil
}

func (d *deployment) closeListeners() {
	for _, l := range d.listeners {
		l.Close()
	}
}
