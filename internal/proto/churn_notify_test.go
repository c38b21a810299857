package proto

import (
	"testing"

	canpkg "hetgrid/internal/can"
	"hetgrid/internal/sim"
)

// TestChurnNotificationsMatchJournal runs protocol-driven churn — the
// initial sequential joins, then random joins, graceful leaves and
// silent failures — and cross-checks three views of membership that
// must never disagree: the driver's OnJoin/OnLeave notifications, the
// overlay's change stamps read from version zero, and the ground-truth
// host table. This pins the notification hooks to the same membership
// record the schedulers' incremental consumers rely on.
func TestChurnNotificationsMatchJournal(t *testing.T) {
	s := NewSim(2, fastConfig(Compact))
	cfg := DefaultChurnConfig(40, 2*sim.Second)
	cfg.Seed = 9
	d := NewChurnDriver(s, cfg)

	notified := make(map[canpkg.NodeID]struct{})
	var touched []canpkg.NodeID // every host a hook named, join or leave
	joins, leaves, fails := 0, 0, 0
	d.OnJoin = func(id canpkg.NodeID) {
		if _, dup := notified[id]; dup {
			t.Fatalf("OnJoin(%d) for a host already notified as present", id)
		}
		notified[id] = struct{}{}
		touched = append(touched, id)
		joins++
	}
	d.OnLeave = func(id canpkg.NodeID, failed bool) {
		if _, ok := notified[id]; !ok {
			t.Fatalf("OnLeave(%d) without a prior OnJoin", id)
		}
		delete(notified, id)
		touched = append(touched, id)
		if failed {
			fails++
		} else {
			leaves++
		}
	}

	d.Start()
	s.Eng.RunUntil(d.ChurnStart + sim.Time(4*sim.Minute))
	d.Stop()

	if joins != d.Joins || leaves != d.Leaves || fails != d.Fails {
		t.Fatalf("hook counts (%d/%d/%d) disagree with driver counters (%d/%d/%d)",
			joins, leaves, fails, d.Joins, d.Leaves, d.Fails)
	}
	if d.Leaves == 0 || d.Fails == 0 {
		t.Fatalf("scenario exercised no %s; lengthen the run",
			map[bool]string{true: "graceful leaves", false: "failures"}[d.Leaves == 0])
	}
	if len(notified) != s.AliveHosts() {
		t.Fatalf("hooks track %d hosts, ground truth has %d", len(notified), s.AliveHosts())
	}
	for _, id := range liveIDs(s.Ov) {
		if _, ok := notified[id]; !ok {
			t.Fatalf("alive host %d missing from hook-tracked membership", id)
		}
	}

	// Every host a hook announced, joining or leaving, must carry an
	// overlay change stamp: AppendChanged from version zero lists every
	// ID the overlay ever admitted.
	stamped := make(map[canpkg.NodeID]bool)
	for _, id := range s.Ov.AppendChanged(nil, 0) {
		stamped[id] = true
	}
	for _, id := range touched {
		if !stamped[id] {
			t.Fatalf("host %d notified but absent from AppendChanged(0)", id)
		}
	}
}
