package router

import (
	"context"
	"errors"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/testutil"
)

// testNode is one in-process fleet server: its own engine and fleet (a
// separate machine in production), optionally sharing a checkpoint
// store with its peers.
type testNode struct {
	addr string
	fl   *fleet.Fleet
	srv  *netproto.Server
}

// startCluster boots n fleet servers on loopback. A non-nil store is
// shared by every node — the deployment shape Drain handoff requires.
func startCluster(t *testing.T, n int, store fleet.CheckpointStore) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		eng, err := core.NewEngine(core.DefaultConfig())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		t.Cleanup(func() { eng.Close() })
		fl, err := fleet.New(eng, fleet.Config{
			Session: core.TrackSessionConfig{SampleRateHz: 8},
			Store:   store,
		})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		t.Cleanup(func() { fl.Close() })
		srv, err := netproto.NewServer("router-node", 0)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		srv.SetFleet(fl)
		nodes[i] = &testNode{addr: srv.Addr(), fl: fl, srv: srv}
	}
	return nodes
}

func clusterAddrs(nodes []*testNode) []string {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	return addrs
}

// localReplay is the ground truth: one uninterrupted standalone session
// fed the stream sequentially, fixes in wire shape for struct-equality
// comparison (locb1 carries raw float64 bits, so wire == local bit for
// bit).
func localReplay(t *testing.T, eng *core.Engine, beacon string, stream []fleet.Obs) []netproto.PushFix {
	t.Helper()
	s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: beacon, SampleRateHz: 8})
	if err != nil {
		t.Fatalf("NewTrackSession(%s): %v", beacon, err)
	}
	var want []netproto.PushFix
	for _, o := range stream {
		pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		if err != nil {
			t.Fatalf("local Push(%s): %v", beacon, err)
		}
		if pt != nil {
			want = append(want, netproto.PushFix{
				T: pt.T, X: pt.Est.X, Y: pt.Est.H,
				N: pt.Est.N, Gamma: pt.Est.Gamma,
				Confidence: pt.Est.Confidence,
				Mode:       pt.Mode.String(),
				Samples:    pt.Samples,
			})
		}
	}
	return want
}

func requireSameFixes(t *testing.T, beacon string, got, want []netproto.PushFix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d routed fixes, want %d", beacon, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s fix %d differs from sequential replay:\n got  %+v\n want %+v", beacon, i, got[i], want[i])
		}
	}
}

// TestRouterEquivalence is the scale-out contract, run under -race by
// the race suite: a 3-node routed cluster fed mixed batches by
// concurrent pushers produces, per beacon, exactly the fix stream of a
// single uninterrupted session replayed sequentially — bit-identical
// floats, not approximately equal. Routing across machines is pure
// transport.
func TestRouterEquivalence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, 3, nil)
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const beacons, pushers, n, slice = 12, 3, 240, 24
	streams := make(map[string][]fleet.Obs, beacons)
	names := make([]string, beacons)
	for i := range names {
		names[i] = "eq-" + string(rune('a'+i))
		streams[names[i]] = fleet.SynthStream(names[i], n, float64(i)*0.9)
	}

	// Each pusher owns a disjoint beacon subset and pushes its slices in
	// order; pushers interleave freely on the shared router. Per-beacon
	// input order is all the equivalence argument needs.
	type obsOut struct {
		fixes map[string][]netproto.PushFix
		node  map[string]string
		err   error
	}
	outs := make([]obsOut, pushers)
	done := make(chan int, pushers)
	for pi := 0; pi < pushers; pi++ {
		go func(pi int) {
			out := obsOut{fixes: map[string][]netproto.PushFix{}, node: map[string]string{}}
			defer func() { outs[pi] = out; done <- pi }()
			for lo := 0; lo < n; lo += slice {
				var batch []fleet.Obs
				for bi := pi; bi < beacons; bi += pushers {
					batch = append(batch, streams[names[bi]][lo:lo+slice]...)
				}
				results, err := r.PushBatch(ctx, batch)
				if err != nil {
					out.err = err
					return
				}
				for _, res := range results {
					if res.Err != nil {
						out.err = res.Err
						return
					}
					if res.Degraded {
						out.err = errors.New(res.Beacon + ": unexpectedly degraded on a healthy cluster")
						return
					}
					if prev, ok := out.node[res.Beacon]; ok && prev != res.Node {
						out.err = errors.New(res.Beacon + ": moved nodes mid-stream (" + prev + " -> " + res.Node + ")")
						return
					}
					out.node[res.Beacon] = res.Node
					out.fixes[res.Beacon] = append(out.fixes[res.Beacon], res.Fixes...)
				}
			}
		}(pi)
	}
	for i := 0; i < pushers; i++ {
		<-done
	}

	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	served := map[string]bool{}
	for _, out := range outs {
		if out.err != nil {
			t.Fatalf("pusher failed: %v", out.err)
		}
		for beacon, fixes := range out.fixes {
			requireSameFixes(t, beacon, fixes, localReplay(t, eng, beacon, streams[beacon]))
			served[out.node[beacon]] = true
		}
	}
	if len(served) < 2 {
		t.Errorf("all %d beacons landed on one node — ring distribution is degenerate", beacons)
	}

	met := r.Metrics()
	if got := met.Counters["router.batches"]; got != int64(pushers*n/slice) {
		t.Errorf("router.batches = %d, want %d", got, pushers*n/slice)
	}
	if got := met.Counters["router.obs.routed"]; got != int64(beacons*n) {
		t.Errorf("router.obs.routed = %d, want %d", got, beacons*n)
	}
	if got := met.Gauges["router.ring.nodes"].Value; got != 3 {
		t.Errorf("router.ring.nodes = %d, want 3", got)
	}
	if got := met.Counters["router.failover.groups"]; got != 0 {
		t.Errorf("router.failover.groups = %d on a healthy cluster, want 0", got)
	}
}

// TestRouterDrainHandoff is the kill-and-handoff acceptance test: three
// nodes share one durable file store; mid-stream, one node is drained.
// Its sessions checkpoint into the store, its beacons re-admit on the
// survivors with Restored set (not Degraded — a drain is planned), and
// the full fix streams are bit-identical to uninterrupted sequential
// replays. Zero acknowledged fixes are lost.
func TestRouterDrainHandoff(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	st, err := durable.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	nodes := startCluster(t, 3, st)
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const beacons, n, half, slice = 8, 240, 120, 24
	streams := make(map[string][]fleet.Obs, beacons)
	names := make([]string, beacons)
	for i := range names {
		names[i] = "dr-" + string(rune('a'+i))
		streams[names[i]] = fleet.SynthStream(names[i], n, float64(i)*1.3)
	}
	push := func(lo, hi int) map[string][]Result {
		t.Helper()
		byBeacon := map[string][]Result{}
		for at := lo; at < hi; at += slice {
			var batch []fleet.Obs
			for _, name := range names {
				batch = append(batch, streams[name][at:at+slice]...)
			}
			results, err := r.PushBatch(ctx, batch)
			if err != nil {
				t.Fatalf("PushBatch @%d: %v", at, err)
			}
			for _, res := range results {
				if res.Err != nil {
					t.Fatalf("%s @%d: %v", res.Beacon, at, res.Err)
				}
				byBeacon[res.Beacon] = append(byBeacon[res.Beacon], res)
			}
		}
		return byBeacon
	}

	first := push(0, half)
	home := map[string]string{}
	for name, rs := range first {
		home[name] = rs[0].Node
	}

	// Drain the node serving dr-a (guaranteed non-empty). Drained must
	// equal the sessions resident there: every beacon it was serving.
	victim := home[names[0]]
	owned := 0
	for _, name := range names {
		if home[name] == victim {
			owned++
		}
	}
	drained, err := r.Drain(ctx, victim)
	if err != nil {
		t.Fatalf("Drain(%s): %v", victim, err)
	}
	if drained != owned {
		t.Fatalf("Drain checkpointed %d sessions, want %d (the beacons it served)", drained, owned)
	}

	second := push(half, n)
	for _, name := range names {
		rs := second[name]
		if rs[0].Node == victim {
			t.Fatalf("%s still served by drained node %s", name, victim)
		}
		if home[name] == victim {
			if !rs[0].Restored {
				t.Errorf("%s: first post-drain batch not Restored — handoff lost the checkpoint", name)
			}
			if rs[0].Degraded {
				t.Errorf("%s: drain handoff marked Degraded — a planned drain is not a failover", name)
			}
		} else if rs[0].Node != home[name] {
			t.Errorf("%s moved %s -> %s although its home survived the drain", name, home[name], rs[0].Node)
		}
	}

	// The acceptance bar: streams across the handoff are bit-identical
	// to uninterrupted replays — zero acknowledged fixes lost.
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	for _, name := range names {
		var got []netproto.PushFix
		for _, res := range append(first[name], second[name]...) {
			got = append(got, res.Fixes...)
		}
		requireSameFixes(t, name, got, localReplay(t, eng, name, streams[name]))
	}

	met := r.Metrics()
	if got := met.Counters["router.drains"]; got != 1 {
		t.Errorf("router.drains = %d, want 1", got)
	}
	if got := met.Counters["router.drained.sessions"]; got != int64(owned) {
		t.Errorf("router.drained.sessions = %d, want %d", got, owned)
	}
	if got := met.Gauges["router.ring.nodes"].Value; got != 2 {
		t.Errorf("router.ring.nodes = %d after drain, want 2", got)
	}
	if got := met.Counters["router.ring.churn"]; got != 1 {
		t.Errorf("router.ring.churn = %d, want 1", got)
	}
	for _, ns := range r.Nodes() {
		if ns.Addr == victim {
			if ns.State != "drained" || ns.Drained != owned {
				t.Errorf("victim status = %+v, want drained with %d sessions", ns, owned)
			}
		} else if ns.State != "up" {
			t.Errorf("survivor %s state = %q, want up", ns.Addr, ns.State)
		}
	}
}

// TestRouterDeadNodeFailover: a node that dies without draining. Its
// beacons fail over clockwise with typed Degraded results — ingest
// keeps flowing as errors-by-default would not — and after enough
// failed exchanges the breaker opens, so later batches skip the corpse
// without paying a dial.
func TestRouterDeadNodeFailover(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	// A frozen breaker clock keeps the tripped breaker open for the
	// whole test — no half-open probes, so the failure accounting below
	// is exact rather than timing-dependent.
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	setBreakerClock(r, (&stepClock{}).Now)
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const beacons, n, slice = 6, 96, 12
	streams := make(map[string][]fleet.Obs, beacons)
	names := make([]string, beacons)
	for i := range names {
		names[i] = "fo-" + string(rune('a'+i))
		streams[names[i]] = fleet.SynthStream(names[i], n, float64(i)*0.7)
	}
	push := func(at int) map[string]Result {
		t.Helper()
		var batch []fleet.Obs
		for _, name := range names {
			batch = append(batch, streams[name][at:at+slice]...)
		}
		results, err := r.PushBatch(ctx, batch)
		if err != nil {
			t.Fatalf("PushBatch @%d: %v", at, err)
		}
		byBeacon := map[string]Result{}
		for _, res := range results {
			byBeacon[res.Beacon] = res
		}
		return byBeacon
	}

	first := push(0)
	victim := first[names[0]].Node
	var orphans []string
	for _, name := range names {
		if first[name].Node == victim {
			orphans = append(orphans, name)
		}
	}
	// Kill the victim hard: close its server so new dials are refused
	// and in-flight connections die. No drain, no checkpoint.
	for _, tn := range nodes {
		if tn.addr == victim {
			tn.srv.Close()
		}
	}

	for round := 1; round < n/slice; round++ {
		res := push(round * slice)
		for _, name := range names {
			got := res[name]
			if got.Err != nil {
				t.Fatalf("%s round %d: %v (failover must degrade, not error)", name, round, got.Err)
			}
			orphaned := first[name].Node == victim
			if got.Degraded != orphaned {
				t.Fatalf("%s round %d: Degraded=%v, want %v", name, round, got.Degraded, orphaned)
			}
			if orphaned {
				if got.DegradedReason != ReasonNodeFailover {
					t.Fatalf("%s round %d: DegradedReason=%q, want %q", name, round, got.DegradedReason, ReasonNodeFailover)
				}
				if got.Node == victim {
					t.Fatalf("%s round %d: served by the dead node", name, round)
				}
			}
		}
	}

	// The victim entered the kill with one recorded success; its first
	// failed exchange makes 2 samples at 50% failure — the breaker trips
	// on exactly one error and every later round skips the corpse
	// without dialing.
	for _, ns := range r.Nodes() {
		if ns.Addr == victim && ns.State != "down" {
			t.Errorf("dead node state = %q, want down (breaker open)", ns.State)
		}
	}
	met := r.Metrics()
	if got := met.Counters["router.node.errors"]; got != 1 {
		t.Errorf("router.node.errors = %d, want exactly 1 (the exchange that tripped the breaker)", got)
	}
	wantFailovers := int64(len(orphans)) * int64(n/slice-1)
	if got := met.Counters["router.failover.groups"]; got != wantFailovers {
		t.Errorf("router.failover.groups = %d, want %d (%d orphans x %d degraded rounds)", got, wantFailovers, len(orphans), n/slice-1)
	}
}

// TestRouterIdleConnectionRedials: a node closes a router connection
// that stays idle past netproto.FrameTimeout. The next push must notice
// before writing, redial the same node and carry on — not fail over to
// a cold session elsewhere.
func TestRouterIdleConnectionRedials(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, 2, nil)
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	const n, slice = 96, 16
	stream := fleet.SynthStream("idle-1", n, 0.4)
	var got []netproto.PushFix
	home := ""
	for lo := 0; lo < n; lo += slice {
		if lo == slice {
			time.Sleep(netproto.FrameTimeout + time.Second) // the node closes the idle connection
		}
		res, err := r.PushBatch(ctx, stream[lo:lo+slice])
		if err != nil {
			t.Fatalf("PushBatch @%d: %v", lo, err)
		}
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("PushBatch @%d = %+v", lo, res)
		}
		if home == "" {
			home = res[0].Node
		}
		if res[0].Node != home || res[0].Degraded {
			t.Fatalf("push @%d served by %s (degraded %v), want home node %s", lo, res[0].Node, res[0].Degraded, home)
		}
		got = append(got, res[0].Fixes...)
	}
	requireSameFixes(t, "idle-1", got, localReplay(t, eng, "idle-1", stream))
	for _, ns := range r.Nodes() {
		if ns.State != "up" {
			t.Errorf("node %s is %q after an idle close, want up", ns.Addr, ns.State)
		}
	}
}

// TestRouterNoUsableNodes: with every node out of the ring, PushBatch
// still answers per beacon — each result carries ErrNoNodes instead of
// the whole batch erroring.
func TestRouterNoUsableNodes(t *testing.T) {
	nodes := startCluster(t, 1, fleet.NewMemStore())
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Drain(ctx, nodes[0].addr); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	results, err := r.PushBatch(ctx, fleet.SynthStream("stranded", 8, 0))
	if err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, ErrNoNodes) {
		t.Fatalf("results = %+v, want one result with ErrNoNodes", results)
	}
}

// TestRouterDrainValidation: unknown addresses and double drains are
// caller errors, reported before any ring change.
func TestRouterDrainValidation(t *testing.T) {
	nodes := startCluster(t, 2, fleet.NewMemStore())
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Drain(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("Drain of an unknown address succeeded")
	}
	if _, err := r.Drain(ctx, nodes[0].addr); err != nil {
		t.Fatalf("first Drain: %v", err)
	}
	if _, err := r.Drain(ctx, nodes[0].addr); err == nil {
		t.Fatal("second Drain of the same node succeeded")
	}
}

// TestRouterClosed: Close is idempotent and fails later calls typed.
func TestRouterClosed(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	r, err := New(clusterAddrs(nodes), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.PushBatch(context.Background(), fleet.SynthStream("x", 4, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := r.Drain(context.Background(), nodes[0].addr); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
}

// TestRouterConfigValidation: the address list is the cluster identity —
// empty, blank, and duplicate entries are construction errors — and
// locb1 is the only codec a router speaks.
func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New(nil) succeeded")
	}
	if _, err := New([]string{""}, Config{}); err == nil {
		t.Error("New with empty address succeeded")
	}
	if _, err := New([]string{"a:1", "a:1"}, Config{}); err == nil {
		t.Error("New with duplicate addresses succeeded")
	}
	if _, err := New([]string{"a:1"}, Config{Codec: "json"}); err == nil {
		t.Error("New with a codec other than locb1 succeeded")
	}
	r, err := New([]string{"a:1"}, Config{Codec: netproto.CodecBinary})
	if err != nil {
		t.Fatalf("New with Codec %s: %v", netproto.CodecBinary, err)
	}
	r.Close()
}
