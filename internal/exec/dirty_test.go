package exec

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/sim"
)

// drain collects one DrainDirty pass.
func drain(c *Cluster) (ids []can.NodeID, enumerable bool) {
	enumerable = c.DrainDirty(func(id can.NodeID) { ids = append(ids, id) })
	return ids, enumerable
}

// TestClusterDirtyTracking pins the dirty-set protocol the schedulers'
// candidate indexes consume: the first drain is non-enumerable (events
// predate the consumer), subsequent drains enumerate exactly the nodes
// whose load-relevant state changed, in event order, deduplicated, and
// MarkAllDirty forces the fallback again.
func TestClusterDirtyTracking(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 4))
	c.AddNode(2, testCaps(1.0, 4))
	c.AddNode(3, testCaps(1.0, 4))

	ids, enumerable := drain(c)
	if enumerable || ids != nil {
		t.Fatalf("first drain: got (%v, %v), want non-enumerable and no callbacks", ids, enumerable)
	}

	// Nothing happened since: an enumerable, empty drain.
	ids, enumerable = drain(c)
	if !enumerable || len(ids) != 0 {
		t.Fatalf("idle drain: got (%v, %v), want enumerable and empty", ids, enumerable)
	}

	// Submissions mark their nodes in event order, deduplicated.
	if err := c.Submit(cpuJob(1, 1, 100*sim.Second), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(cpuJob(2, 1, 100*sim.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(cpuJob(3, 1, 100*sim.Second), 2); err != nil {
		t.Fatal(err)
	}
	ids, enumerable = drain(c)
	if !enumerable || len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("post-submit drain: got (%v, %v), want ([2 1], true)", ids, enumerable)
	}

	// A finishing job marks its node again.
	eng.Run()
	ids, enumerable = drain(c)
	if !enumerable || len(ids) != 2 {
		t.Fatalf("post-finish drain: got (%v, %v), want both busy nodes", ids, enumerable)
	}

	// Withdrawal marks the node one last time (the consumer sees the
	// zeroed load; the overlay version bump handles the membership side).
	c.RemoveNode(3)
	ids, enumerable = drain(c)
	if !enumerable || len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("post-remove drain: got (%v, %v), want ([3], true)", ids, enumerable)
	}

	// MarkAllDirty poisons exactly one drain, even with entries queued.
	if err := c.Submit(cpuJob(4, 1, 100*sim.Second), 1); err != nil {
		t.Fatal(err)
	}
	c.MarkAllDirty()
	ids, enumerable = drain(c)
	if enumerable || ids != nil {
		t.Fatalf("poisoned drain: got (%v, %v), want non-enumerable and no callbacks", ids, enumerable)
	}
	ids, enumerable = drain(c)
	if !enumerable || len(ids) != 0 {
		t.Fatalf("drain after poison consumed: got (%v, %v), want enumerable and empty", ids, enumerable)
	}
}
