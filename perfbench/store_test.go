package main

import (
	"fmt"
	"testing"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/fleet"
)

// ingest pushes four beacons through a fleet over store in 2-s slices,
// one beacon silent long enough to be evicted and restored, and returns
// every result plus the fleet's final metrics.
func ingest(t *testing.T, eng *core.Engine, store fleet.CheckpointStore) ([]fleet.Result, map[string]int64) {
	t.Helper()
	fl, err := fleet.New(eng, fleet.Config{
		Shards:     2,
		Session:    core.TrackSessionConfig{SampleRateHz: 8},
		Store:      store,
		IdleMaxAge: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, slice = 240, 16
	streams := make([][]fleet.Obs, 4)
	for i := range streams {
		streams[i] = fleet.SynthStream(fmt.Sprintf("w%d", i), n, 0.8*float64(i))
	}
	var out []fleet.Result
	for lo := 0; lo < n; lo += slice {
		var batch []fleet.Obs
		for i, s := range streams {
			if i == 3 && lo >= 64 && lo < 176 { // silent for 14 s
				continue
			}
			batch = append(batch, s[lo:lo+slice]...)
		}
		res, err := fl.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res...)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	return out, fl.Metrics().Counters
}

func sameResults(t *testing.T, got, want []fleet.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Beacon != w.Beacon || g.Created != w.Created || g.Restored != w.Restored ||
			g.Quarantined != w.Quarantined || (g.Err == nil) != (w.Err == nil) || len(g.Points) != len(w.Points) {
			t.Fatalf("result %d: %+v, want %+v", i, g, w)
		}
		for j := range w.Points {
			gp, wp := g.Points[j], w.Points[j]
			if gp.T != wp.T || gp.Mode != wp.Mode || gp.Samples != wp.Samples ||
				gp.Est.X != wp.Est.X || gp.Est.H != wp.Est.H || gp.Est.N != wp.Est.N ||
				gp.Est.Gamma != wp.Est.Gamma || gp.Est.Confidence != wp.Est.Confidence {
				t.Fatalf("result %d fix %d differs: %+v vs %+v", i, j, gp, wp)
			}
		}
	}
}

// TestTimedStoreIsTransparent: a fleet over the wrapper behaves exactly
// like a fleet over the bare store — same fixes, same lifecycle flags,
// and the same acked/buffered checkpoint accounting — for a durable
// FileStore and for the non-durable MemStore alike.
func TestTimedStoreIsTransparent(t *testing.T) {
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	open := func() *durable.FileStore {
		st, err := durable.Open(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	for _, c := range []struct {
		name        string
		bare, inner fleet.CheckpointStore
	}{
		{"file", open(), open()},
		{"mem", fleet.NewMemStore(), fleet.NewMemStore()},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, wantMet := ingest(t, eng, c.bare)
			ts := newTimedStore(c.inner)
			ts.record(true)
			got, gotMet := ingest(t, eng, ts)
			sameResults(t, got, want)
			for _, k := range []string{"fleet.checkpoints.acked", "fleet.checkpoints.buffered",
				"fleet.sessions.evicted", "fleet.sessions.restored"} {
				if gotMet[k] != wantMet[k] {
					t.Errorf("%s = %d over the wrapper, %d over the bare store", k, gotMet[k], wantMet[k])
				}
			}
			if wantMet["fleet.sessions.restored"] == 0 {
				t.Fatal("the scenario never restored a session")
			}
			st := ts.stats()
			if st.Saves != gotMet["fleet.checkpoints.written"] || st.Loads == 0 || st.SaveNs <= 0 {
				t.Errorf("wrapper timed %d saves (%d ns) and %d loads; fleet wrote %d checkpoints",
					st.Saves, st.SaveNs, st.Loads, gotMet["fleet.checkpoints.written"])
			}
		})
	}
}

func TestTimedStoreRecordsOnlyWhenOn(t *testing.T) {
	ts := newTimedStore(fleet.NewMemStore())
	cp := &core.SessionCheckpoint{Version: core.SessionCheckpointVersion, Beacon: "x"}
	if err := ts.Save("x", cp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.Load("x"); err != nil {
		t.Fatal(err)
	}
	if st := ts.stats(); st != (storeStats{}) {
		t.Fatalf("recorded %+v with recording off", st)
	}
	ts.record(true)
	if _, found, err := ts.Load("x"); err != nil || !found {
		t.Fatalf("load through wrapper: found=%v err=%v", found, err)
	}
	if err := ts.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if st := ts.stats(); st.Loads != 1 || st.Deletes != 1 || st.Saves != 0 {
		t.Fatalf("stats %+v, want one load and one delete", st)
	}
	if ts.Durable() {
		t.Fatal("a MemStore reported durable through the wrapper")
	}
}
