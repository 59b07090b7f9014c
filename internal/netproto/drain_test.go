package netproto

import (
	"context"
	"testing"
	"time"

	"locble/internal/fleet"
	"locble/internal/testutil"
)

// TestDrainOp: the {"op":"drain"} exchange checkpoints-and-evicts every
// session on the server's fleet and reports the count — the wire half
// of the router's planned handoff. The connection survives the exchange
// for reuse.
func TestDrainOp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, fl := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	var batch []fleet.Obs
	batch = append(batch, fleet.SynthStream("dn-1", 24, 0.2)...)
	batch = append(batch, fleet.SynthStream("dn-2", 24, 1.4)...)
	if _, err := cl.Push(ctx, batch); err != nil {
		t.Fatalf("Push: %v", err)
	}
	n, err := cl.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 2 {
		t.Fatalf("Drain() = %d, want 2", n)
	}
	if live := fl.Sessions(); live != 0 {
		t.Fatalf("Sessions() = %d after wire drain, want 0", live)
	}
	// The same connection keeps working, and the drained beacon
	// re-admits from its drain checkpoint (the fleet's default MemStore)
	// with Restored set.
	res, err := cl.Push(ctx, fleet.SynthStream("dn-1", 24, 0.2))
	if err != nil {
		t.Fatalf("post-drain Push: %v", err)
	}
	if len(res) != 1 || res[0].Err != "" || !res[0].Restored {
		t.Fatalf("post-drain results = %+v, want one Restored result", res)
	}
}

// TestDrainOpNoFleet: a server without a fleet refuses the op with an
// exchange-level error.
func TestDrainOpNoFleet(t *testing.T) {
	srv, err := NewServer("no-fleet-drain", 0)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Drain(ctx); err == nil {
		t.Fatal("Drain on a fleet-less server succeeded, want server error")
	}
}
