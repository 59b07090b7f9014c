package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"locble"
	"locble/internal/fleet"
	"locble/internal/netproto"
)

// runFleet demos the fleet serving stack end to end on loopback: a
// netproto server with an attached Fleet ingests batched observations
// for many beacons over the {"op":"push"} wire op, one beacon walks out
// of range (idle-evicted to a checkpoint) and back (restored, resuming
// its session bit-exactly), and the run closes with the fleet's
// lifecycle metrics.
//
// With storeDir set, checkpoints live in a crash-safe durable store on
// disk instead of memory: kill the process mid-run, rerun with the same
// -store, and the evicted sessions recover — the open prints what
// recovery replayed and repaired.
func runFleet(beacons int, storeDir string, metricsF, verbose bool) error {
	if beacons < 2 {
		beacons = 2
	}
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
		fmt.Printf("durable store %s: %d checkpoints recovered (%d records replayed, %d torn tails truncated, %d corrupt records quarantined)\n",
			storeDir, fs.Len(), rec.Replayed, rec.TornTails, rec.Quarantined)
		store = fs
	}
	fl, err := sys.NewFleet(locble.FleetConfig{
		Session:    locble.TrackSessionConfig{SampleRateHz: 8},
		Store:      store,
		IdleMaxAge: 5,
	})
	if err != nil {
		return err
	}
	srv, err := netproto.NewServer("fleet-demo", 0)
	if err != nil {
		fl.Close()
		return err
	}
	srv.SetFleet(fl)
	defer fl.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl, err := netproto.DialFleet(ctx, srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()

	const (
		n     = 480 // 60 s per beacon at 8 Hz
		slice = 16  // 2 s batches
		gapLo = 160 // the wanderer is silent for t in [20, 40) s —
		gapHi = 320 // long past the 5 s idle horizon
	)
	wanderer := "tag-00"
	streams := make([][]netproto.PushObs, beacons)
	for i := range streams {
		name := fmt.Sprintf("tag-%02d", i)
		for _, o := range fleet.SynthStream(name, n, 0.5*float64(i)) {
			streams[i] = append(streams[i], netproto.PushObs{
				Beacon: o.Beacon, T: o.T, RSS: o.RSS, P: o.P, Q: o.Q,
			})
		}
	}

	fmt.Printf("fleet demo: %d beacons, %.0f s of observations, %.0f s batches over loopback push (server %s)\n",
		beacons, float64(n)/8, float64(slice)/8, srv.Addr())

	live := int64(0)
	fixes := 0
	for lo := 0; lo < n; lo += slice {
		var batch []netproto.PushObs
		for i, s := range streams {
			if i == 0 && lo >= gapLo && lo < gapHi {
				continue // the wanderer is out of range
			}
			batch = append(batch, s[lo:lo+slice]...)
		}
		res, err := cl.Push(ctx, batch)
		if err != nil {
			return err
		}
		if lo == gapLo {
			fmt.Printf("  t=%4.1f  %s went silent\n", float64(lo)/8, wanderer)
		}
		for _, r := range res {
			if r.Err != "" {
				fmt.Fprintf(os.Stderr, "  %s: %s\n", r.Beacon, r.Err)
				continue
			}
			if r.Restored {
				fmt.Printf("  t=%4.1f  %s reappeared: session restored from checkpoint\n", float64(lo)/8, r.Beacon)
			}
			fixes += len(r.Fixes)
			for _, fx := range r.Fixes {
				if r.Beacon == wanderer || verbose {
					fmt.Printf("  t=%4.1f  %s  fix (%.2f, %.2f)  conf %.2f  %s\n",
						fx.T, r.Beacon, fx.X, fx.Y, fx.Confidence, fx.Mode)
				}
			}
		}
		if now := fl.Sessions(); now != live {
			if now < live {
				fmt.Printf("  t=%4.1f  sessions %d -> %d (idle sessions evicted to checkpoints)\n",
					float64(lo+slice)/8, live, now)
			}
			live = now
		}
	}

	snap := fl.Metrics()
	fmt.Printf("summary: sessions created=%d evicted=%d restored=%d live=%d; checkpoints=%d; %d batches, %d obs, %d fixes\n",
		snap.Counters["fleet.sessions.created"],
		snap.Counters["fleet.sessions.evicted"],
		snap.Counters["fleet.sessions.restored"],
		fl.Sessions(),
		snap.Counters["fleet.checkpoints.written"],
		snap.Counters["fleet.batches"],
		snap.Counters["fleet.obs.pushed"],
		fixes)
	if metricsF {
		fmt.Println("\nfleet metrics:")
		snap.WriteJSON(os.Stdout)
	}
	return nil
}
