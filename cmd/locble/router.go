package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"locble"
	"locble/internal/fleet"
	"locble/internal/netproto"
)

// runServe runs one standalone netproto fleet server — a node for
// -router to fan out over — until interrupted. With storeDir set, its
// sessions checkpoint into a durable store; point every node of a
// cluster at a shared directory and router drains hand sessions off
// bit-exactly.
func runServe(port int, storeDir string) error {
	sys, err := locble.New()
	if err != nil {
		return err
	}
	var store locble.CheckpointStore = locble.NewMemStore()
	if storeDir != "" {
		fs, err := locble.NewFileStore(storeDir)
		if err != nil {
			return err
		}
		defer fs.Close()
		rec := fs.RecoveryStats()
		fmt.Printf("durable store %s: %d checkpoints recovered (%d replayed, %d torn tails, %d quarantined)\n",
			storeDir, fs.Len(), rec.Replayed, rec.TornTails, rec.Quarantined)
		store = fs
	}
	fl, err := sys.NewFleet(locble.FleetConfig{
		Session: locble.TrackSessionConfig{SampleRateHz: 8},
		Store:   store,
	})
	if err != nil {
		return err
	}
	srv, err := netproto.NewServer("fleet-node", port)
	if err != nil {
		fl.Close()
		return err
	}
	srv.SetFleet(fl)
	defer fl.Close() // checkpoints live sessions into the store
	defer srv.Close()

	fmt.Printf("fleet server on %s (ops: fetch, drain, metrics; push and subscribe after a %s hello) — ctrl-C to stop\n",
		srv.Addr(), netproto.CodecBinary)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Println("\nshutting down: checkpointing live sessions")
	return nil
}

// runRouter demos multi-node scale-out. The spec is either a node count
// ("3": that many in-process loopback fleet servers sharing one
// checkpoint store) or a comma-separated address list of running -serve
// nodes. Batched multi-beacon ingest fans out over the consistent-hash
// ring; halfway through, one node is drained — in loopback mode the
// node serving tag-00, in address mode the -drain address if given —
// and its beacons hand off to the survivors, restoring bit-exactly from
// the shared store.
func runRouter(spec string, beacons int, storeDir, drainAddr string, metricsF, verbose bool) error {
	if beacons < 2 {
		beacons = 2
	}
	var (
		addrs   []string
		cleanup []func()
	)
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	if n, err := strconv.Atoi(spec); err == nil {
		// Loopback mode: an in-process cluster over one shared store.
		if n < 2 {
			return fmt.Errorf("-router %d: a cluster needs at least 2 nodes", n)
		}
		var store locble.CheckpointStore = locble.NewMemStore()
		if storeDir != "" {
			fs, err := locble.NewFileStore(storeDir)
			if err != nil {
				return err
			}
			cleanup = append(cleanup, func() { fs.Close() })
			store = fs
		}
		for i := 0; i < n; i++ {
			sys, err := locble.New()
			if err != nil {
				return err
			}
			fl, err := sys.NewFleet(locble.FleetConfig{
				Session: locble.TrackSessionConfig{SampleRateHz: 8},
				Store:   store,
			})
			if err != nil {
				return err
			}
			srv, err := netproto.NewServer(fmt.Sprintf("node-%d", i), 0)
			if err != nil {
				fl.Close()
				return err
			}
			srv.SetFleet(fl)
			cleanup = append(cleanup, func() { srv.Close(); fl.Close() })
			addrs = append(addrs, srv.Addr())
		}
		fmt.Printf("router demo: %d-node loopback cluster, shared %s store\n",
			n, map[bool]string{true: "durable", false: "memory"}[storeDir != ""])
	} else {
		addrs = strings.Split(spec, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		fmt.Printf("router: %d external nodes: %s\n", len(addrs), strings.Join(addrs, ", "))
	}

	rt, err := locble.NewRouter(addrs, locble.RouterConfig{})
	if err != nil {
		return err
	}
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const (
		n       = 480 // 60 s per beacon at 8 Hz
		slice   = 16  // 2 s batches
		drainAt = 240 // drain one node at t = 30 s
	)
	streams := make([][]locble.FleetObs, beacons)
	for i := range streams {
		streams[i] = fleet.SynthStream(fmt.Sprintf("tag-%02d", i), n, 0.5*float64(i))
	}
	fmt.Printf("%d beacons, %.0f s of observations, %.0f s batches; drain at t=%.0f s\n",
		beacons, float64(n)/8, float64(slice)/8, float64(drainAt)/8)

	home := map[string]string{}
	victim := drainAddr
	fixes, degraded := 0, 0
	for lo := 0; lo < n; lo += slice {
		if lo == drainAt && victim != "" {
			start := time.Now()
			moved, err := rt.Drain(ctx, victim)
			if err != nil {
				return err
			}
			fmt.Printf("  t=%4.1f  drained %s: %d sessions checkpointed and handed off in %.0f ms\n",
				float64(lo)/8, victim, moved, time.Since(start).Seconds()*1e3)
		}
		var batch []locble.FleetObs
		for _, s := range streams {
			batch = append(batch, s[lo:lo+slice]...)
		}
		results, err := rt.PushBatch(ctx, batch)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "  %s: %v\n", r.Beacon, r.Err)
				continue
			}
			if victim == "" && r.Beacon == "tag-00" {
				victim = r.Node // loopback mode: drain tag-00's node
			}
			if prev, ok := home[r.Beacon]; !ok {
				home[r.Beacon] = r.Node
				if verbose {
					fmt.Printf("  t=%4.1f  %s -> node %s\n", float64(lo)/8, r.Beacon, r.Node)
				}
			} else if prev != r.Node {
				home[r.Beacon] = r.Node
				tag := "restored from checkpoint"
				if !r.Restored {
					tag = "cold start"
				}
				fmt.Printf("  t=%4.1f  %s handed off %s -> %s (%s)\n",
					float64(lo)/8, r.Beacon, prev, r.Node, tag)
			}
			if r.Degraded {
				degraded++
			}
			fixes += len(r.Fixes)
		}
	}

	perNode := map[string]int{}
	for _, nd := range home {
		perNode[nd]++
	}
	fmt.Printf("summary: %d fixes, %d degraded results; beacons per node:", fixes, degraded)
	for _, st := range rt.Nodes() {
		fmt.Printf(" %s=%d(%s)", st.Addr, perNode[st.Addr], st.State)
	}
	fmt.Println()
	snap := rt.Metrics()
	fmt.Printf("router: %d batches, %d obs routed, ring churn %d, %d sessions drained\n",
		snap.Counters["router.batches"],
		snap.Counters["router.obs.routed"],
		snap.Counters["router.ring.churn"],
		snap.Counters["router.drained.sessions"])
	if metricsF {
		fmt.Println("\nrouter metrics:")
		snap.WriteJSON(os.Stdout)
	}
	return nil
}
