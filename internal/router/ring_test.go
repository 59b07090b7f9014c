package router

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
)

func testMembers(n int) map[int]string {
	m := make(map[int]string, n)
	for i := 0; i < n; i++ {
		m[i] = fmt.Sprintf("127.0.0.1:%d", 7000+i)
	}
	return m
}

func keyOwner(rg ring, key string) int {
	return rg.owner(ringHash(key, -1))
}

// TestRingDeterministic: two rings built from the same members agree on
// every key — the property that lets independent gateways route
// consistently without coordination.
func TestRingDeterministic(t *testing.T) {
	a := buildRing(testMembers(3))
	b := buildRing(testMembers(3))
	if len(a.pts) != 3*ringVNodes || len(b.pts) != 3*ringVNodes {
		t.Fatalf("ring sizes %d, %d, want %d", len(a.pts), len(b.pts), 3*ringVNodes)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("beacon-%03d", i)
		if ao, bo := keyOwner(a, key), keyOwner(b, key); ao != bo {
			t.Fatalf("key %q: owners %d vs %d across identical rings", key, ao, bo)
		}
	}
}

// TestRingDistribution: with 64 vnodes each of 3 nodes owns a
// non-degenerate share of 600 keys (virtual nodes are doing their job).
func TestRingDistribution(t *testing.T) {
	rg := buildRing(testMembers(3))
	counts := make(map[int]int)
	for i := 0; i < 600; i++ {
		counts[keyOwner(rg, fmt.Sprintf("beacon-%03d", i))]++
	}
	for n := 0; n < 3; n++ {
		if counts[n] < 60 { // 10% of keys; an even split would be 200
			t.Errorf("node %d owns only %d/600 keys — placement is degenerate (%v)", n, counts[n], counts)
		}
	}
}

// TestRingRemovalStability is the consistent-hashing contract: removing
// one node remaps only that node's keys; every other key keeps its
// owner. This is what makes Drain a local event instead of a full
// rebalance.
func TestRingRemovalStability(t *testing.T) {
	full := testMembers(3)
	before := buildRing(full)
	delete(full, 1)
	after := buildRing(full)

	remapped := 0
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("beacon-%03d", i)
		ob, oa := keyOwner(before, key), keyOwner(after, key)
		if ob == 1 {
			if oa == 1 {
				t.Fatalf("key %q still owned by removed node", key)
			}
			remapped++
			continue
		}
		if oa != ob {
			t.Fatalf("key %q moved %d -> %d although its owner stayed in the ring", key, ob, oa)
		}
	}
	if remapped == 0 {
		t.Fatal("removed node owned no keys — distribution test should have caught this")
	}
}

// TestRingWalkVisitsAllDistinct: the failover walk offers every node
// exactly once, home first.
func TestRingWalkVisitsAllDistinct(t *testing.T) {
	rg := buildRing(testMembers(3))
	h := ringHash("walk-key", -1)
	var order []int
	rg.walk(h, func(n int) bool {
		order = append(order, n)
		return true
	})
	if len(order) != 3 {
		t.Fatalf("walk visited %v, want 3 distinct nodes", order)
	}
	seen := map[int]bool{}
	for _, n := range order {
		if seen[n] {
			t.Fatalf("walk visited node %d twice: %v", n, order)
		}
		seen[n] = true
	}
	if order[0] != rg.owner(h) {
		t.Fatalf("walk started at %d, want home node %d", order[0], rg.owner(h))
	}
}

// TestRingEmpty: an empty ring owns nothing and walks nowhere.
func TestRingEmpty(t *testing.T) {
	rg := buildRing(nil)
	if got := rg.owner(123); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
	rg.walk(123, func(int) bool { t.Fatal("walk on empty ring visited a node"); return false })
}

// TestRingPlacementPinned: routed placement is part of a deployment's
// contract — gateways of different builds must agree, and a beacon's
// home holds its session — so the owners of 1,000 beacons on a fixed
// 3-node list are pinned to the values the ring has always produced.
func TestRingPlacementPinned(t *testing.T) {
	addrs := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}
	r, _ := fakeRouter(t, &stepClock{}, addrs...)
	beacons := make([]string, 1000)
	for i := range beacons {
		beacons[i] = fmt.Sprintf("beacon-%04d", i)
	}
	results, err := r.PushBatch(context.Background(), batchOf(beacons, 0))
	if err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	owners := make([]byte, len(results))
	var counts [3]int
	for i, res := range results {
		for ni, a := range addrs {
			if res.Node == a {
				owners[i] = byte('0' + ni)
				counts[ni]++
			}
		}
	}
	const want = "1d37e12e824e4727c17f93bde0479c854988e548976f74833fa23d1376f760cd"
	if got := fmt.Sprintf("%x", sha256.Sum256(owners)); got != want || counts != [3]int{345, 292, 363} {
		t.Fatalf("placement moved: owners per node %v, digest %s; want [345 292 363], %s (first owners %s)", counts, got, want, owners[:40])
	}
}
