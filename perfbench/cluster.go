package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/obs"
	"locble/internal/router"
)

// node is one loopback fleet server: its own engine and fleet behind a
// netproto server, reaching the shared checkpoint store through its own
// timing wrapper.
type node struct {
	eng   *core.Engine
	fl    *fleet.Fleet
	srv   *netproto.Server
	store *timedStore
}

// cluster is the serve/churn system under test: a router over nodes.
type cluster struct {
	nodes []*node
	rt    *router.Router
	file  *durable.FileStore // nil when the nodes share a MemStore
	// ephemeral is set when a node could not bind its fixed port.
	ephemeral bool
}

// basePort is node 0's loopback port; node i listens on basePort+i. The
// router places beacons on a hash ring keyed by node address, so fixed
// addresses (with the fixed beacon names) make the beacon-to-node
// placement, and with it the fan-out, the same in every run. It sits
// below Linux's ephemeral range. If the port is taken the node falls back
// to an ephemeral one; the run stays correct, only its placement varies.
const basePort = 27311

// startCluster builds engines, starts the nodes, opens the store and
// dials the router to every node with locb1 negotiated. This is what
// setup_s times. A durable store lives in dir.
func startCluster(cs clusterSpec, dir string) (*cluster, error) {
	c := &cluster{}
	var shared fleet.CheckpointStore
	if cs.Durable {
		st, err := durable.Open(dir, &durable.Options{Buffered: true})
		if err != nil {
			return nil, err
		}
		c.file, shared = st, st
	} else {
		shared = fleet.NewMemStore()
	}
	quiet := log.New(io.Discard, "", 0)
	addrs := make([]string, 0, cs.Nodes)
	for i := 0; i < cs.Nodes; i++ {
		eng, err := core.NewEngine(core.DefaultConfig())
		if err != nil {
			c.close()
			return nil, err
		}
		n := &node{eng: eng, store: newTimedStore(shared)}
		c.nodes = append(c.nodes, n)
		n.fl, err = fleet.New(eng, fleet.Config{
			Shards:     cs.Shards,
			Session:    core.TrackSessionConfig{SampleRateHz: cs.RateHz},
			Store:      n.store,
			IdleMaxAge: cs.IdleMaxAgeS,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		scfg := netproto.ServerConfig{Logf: quiet.Printf}
		n.srv, err = netproto.NewServerWithConfig("perfbench", basePort+i, scfg)
		if err != nil {
			c.ephemeral = true
			n.srv, err = netproto.NewServerWithConfig("perfbench", 0, scfg)
		}
		if err != nil {
			c.close()
			return nil, err
		}
		n.srv.SetFleet(n.fl)
		addrs = append(addrs, n.srv.Addr())
	}
	rt, err := router.New(addrs, router.Config{Codec: netproto.CodecBinary})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	if err := c.dial(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// dial makes the router connect to every node. The router dials lazily,
// so it pushes one observation for throwaway beacons until each node has
// served one, then confirms every connection negotiated locb1.
func (c *cluster) dial() error {
	binary, err := counterHandle(obs.Default, "netproto.codec.binary")
	if err != nil {
		return err
	}
	before := binary.Value()
	served := map[string]bool{}
	for i := 0; len(served) < len(c.nodes); i++ {
		if i == 64*len(c.nodes) {
			return fmt.Errorf("dial: %d of %d nodes reached", len(served), len(c.nodes))
		}
		res, err := c.rt.PushBatch(context.Background(), []fleet.Obs{{Beacon: fmt.Sprintf("dial-%03d", i), RSS: -60}})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("dial: %s: %w", r.Beacon, r.Err)
			}
			served[r.Node] = true
		}
	}
	if got := binary.Value() - before; got < int64(len(c.nodes)) {
		return fmt.Errorf("dial: %d of %d connections negotiated %s", got, len(c.nodes), netproto.CodecBinary)
	}
	return nil
}

// close tears the cluster down: router first, then servers, fleets
// (which checkpoint every resident session), engines and the store.
func (c *cluster) close() error {
	var errs []error
	if c.rt != nil {
		errs = append(errs, c.rt.Close())
	}
	for _, n := range c.nodes {
		if n.srv != nil {
			errs = append(errs, n.srv.Close())
		}
	}
	for _, n := range c.nodes {
		if n.fl != nil {
			errs = append(errs, n.fl.Close())
		}
		errs = append(errs, n.eng.Close())
	}
	if c.file != nil {
		errs = append(errs, c.file.Close())
	}
	return errors.Join(errs...)
}

// recordStores turns store-call timing on or off on every node.
func (c *cluster) recordStores(on bool) {
	for _, n := range c.nodes {
		n.store.record(on)
	}
}
