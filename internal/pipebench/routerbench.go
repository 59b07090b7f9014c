// Router bench: the multi-node scale-out section. A 3-node loopback
// cluster (each node its own engine, fleet, and netproto server, all
// sharing one durable checkpoint store) ingests the same fixed workload
// as a single fleet server, through a consistent-hash router, with a
// planned drain of one node mid-run. The section measures what the
// router promises: scale-out costs transport only (routed vs single
// wall), a drain is fast (its wall-clock), and — the absolute contract —
// the routed-with-drain run emits exactly the fixes the single fleet
// does. Any shortfall is an acknowledged fix lost in the handoff and
// the gate fails it with zero tolerance.
package pipebench

import (
	"context"
	"fmt"
	"os"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/router"
)

// RouterStats is the multi-node routing measurement. Fixes, FixesLost
// and Degraded are deterministic for a given build (routing is pure
// transport, so the routed fix count must equal the single-fleet
// count); the walls are the hardware-dependent part. DrainedSessions
// depends on which ephemeral-port address the ring hashes where, so it
// is gated only as nonzero — the drained node is always chosen to be
// serving at least one beacon.
type RouterStats struct {
	Nodes     int   `json:"nodes"`
	Beacons   int   `json:"beacons"`
	ObsRouted int64 `json:"obs_routed"`
	// Fixes is the routed run's total; FixesLost is the single-fleet
	// reference total minus it. Must be 0 — the drain/handoff contract.
	Fixes     int `json:"fixes"`
	FixesLost int `json:"fixes_lost"`
	// Degraded counts routed results that fell back to a non-home node.
	// Nothing dies in this scenario, so any degradation is a router bug.
	Degraded          int     `json:"degraded"`
	SingleWallSeconds float64 `json:"single_wall_seconds"`
	RoutedWallSeconds float64 `json:"routed_wall_seconds"`
	// ScaleEfficiency is single wall / routed wall: >1 means the routed
	// cluster beat one fleet on the same workload (loopback transport
	// included). Informational — the gate bounds the walls directly.
	ScaleEfficiency  float64 `json:"scale_efficiency"`
	DrainWallSeconds float64 `json:"drain_wall_seconds"`
	DrainedSessions  int     `json:"drained_sessions"`
}

const (
	routerNodes   = 3
	routerBeacons = 24
	routerObsN    = 320 // 40 s per beacon at 8 Hz
	routerSlice   = 16  // 2 s batches
	routerDrainAt = 160 // drain one node halfway through the stream
)

func routerStreams() [][]fleet.Obs {
	streams := make([][]fleet.Obs, routerBeacons)
	for i := range streams {
		streams[i] = fleet.SynthStream(fmt.Sprintf("rb-%02d", i), routerObsN, 0.53*float64(i))
	}
	return streams
}

// benchNode is one loopback fleet server of the bench cluster.
type benchNode struct {
	fl  *fleet.Fleet
	srv *netproto.Server
}

func startBenchNode(store fleet.CheckpointStore) (*benchNode, error) {
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(eng, fleet.Config{
		Session: core.TrackSessionConfig{SampleRateHz: 8},
		Store:   store,
	})
	if err != nil {
		return nil, err
	}
	srv, err := netproto.NewServer("routerbench", 0)
	if err != nil {
		fl.Close()
		return nil, err
	}
	srv.SetFleet(fl)
	return &benchNode{fl: fl, srv: srv}, nil
}

func (n *benchNode) close() {
	n.srv.Close()
	n.fl.Close()
}

// runRouterBench runs the scenario a few times and keeps the rep with
// the best routed wall (the min-of-N convention the fleet bench uses —
// the cluster is heavily concurrent, so single walls are scheduler-
// noisy). Correctness counters are the *worst* across reps: a fix lost
// or a degraded result in any rep must reach the gate.
func runRouterBench() (*RouterStats, error) {
	const reps = 3
	var best *RouterStats
	fixesLost, degraded := 0, 0
	for r := 0; r < reps; r++ {
		st, err := routerBenchOnce()
		if err != nil {
			return nil, err
		}
		if st.FixesLost > fixesLost {
			fixesLost = st.FixesLost
		}
		if st.Degraded > degraded {
			degraded = st.Degraded
		}
		if best == nil || st.RoutedWallSeconds < best.RoutedWallSeconds {
			best = st
		}
	}
	best.FixesLost = fixesLost
	best.Degraded = degraded
	return best, nil
}

func routerBenchOnce() (*RouterStats, error) {
	streams := routerStreams()
	ctx := context.Background()

	// Reference: the same workload through ONE fleet server over the
	// wire, sequentially. Its fix count is the ground truth the routed
	// run must match exactly.
	single, err := startBenchNode(nil)
	if err != nil {
		return nil, err
	}
	refFixes := 0
	singleStart := time.Now()
	err = func() error {
		defer single.close()
		cl, err := netproto.DialFleet(ctx, single.srv.Addr())
		if err != nil {
			return err
		}
		defer cl.Close()
		for lo := 0; lo < routerObsN; lo += routerSlice {
			batch := make([]fleet.Obs, 0, routerBeacons*routerSlice)
			for _, s := range streams {
				batch = append(batch, s[lo:lo+routerSlice]...)
			}
			res, err := cl.Push(ctx, batch)
			if err != nil {
				return err
			}
			for _, r := range res {
				if r.Err != "" {
					return fmt.Errorf("router bench single: %s: %s", r.Beacon, r.Err)
				}
				refFixes += len(r.Fixes)
			}
		}
		return nil
	}()
	singleWall := time.Since(singleStart).Seconds()
	if err != nil {
		return nil, err
	}

	// Routed: three nodes sharing one durable store — the deployment
	// shape where a drain's checkpoints are readable by the survivors.
	dir, err := os.MkdirTemp("", "locble-routerbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	nodes := make([]*benchNode, routerNodes)
	for i := range nodes {
		n, err := startBenchNode(store)
		if err != nil {
			for _, c := range nodes[:i] {
				c.close()
			}
			return nil, err
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	addrs := make([]string, routerNodes)
	for i, n := range nodes {
		addrs[i] = n.srv.Addr()
	}
	rt, err := router.New(addrs, router.Config{})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	st := &RouterStats{Nodes: routerNodes, Beacons: routerBeacons}
	victim := ""
	routedStart := time.Now()
	for lo := 0; lo < routerObsN; lo += routerSlice {
		if lo == routerDrainAt {
			dStart := time.Now()
			n, err := rt.Drain(ctx, victim)
			st.DrainWallSeconds = time.Since(dStart).Seconds()
			if err != nil {
				return nil, fmt.Errorf("router bench drain: %w", err)
			}
			st.DrainedSessions = n
		}
		batch := make([]fleet.Obs, 0, routerBeacons*routerSlice)
		for _, s := range streams {
			batch = append(batch, s[lo:lo+routerSlice]...)
		}
		results, err := rt.PushBatch(ctx, batch)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("router bench routed: %s: %w", r.Beacon, r.Err)
			}
			if r.Degraded {
				st.Degraded++
			}
			st.Fixes += len(r.Fixes)
			// Drain whichever node serves the first beacon — guaranteed
			// to hold at least one session when the drain fires.
			if victim == "" && r.Beacon == "rb-00" {
				victim = r.Node
			}
		}
	}
	st.RoutedWallSeconds = time.Since(routedStart).Seconds()
	st.SingleWallSeconds = singleWall
	if st.RoutedWallSeconds > 0 {
		st.ScaleEfficiency = singleWall / st.RoutedWallSeconds
	}
	st.ObsRouted = rt.Metrics().Counters["router.obs.routed"]
	st.FixesLost = refFixes - st.Fixes
	return st, nil
}
