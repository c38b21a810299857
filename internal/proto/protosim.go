package proto

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/netsim"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// Sim couples the ground-truth overlay with per-node protocol hosts and
// a simulated network. Drivers call Join, LeaveVoluntary and Fail to
// generate churn; the protocol machinery (heartbeats, take-over
// announcements, repairs) runs through the event engine.
type Sim struct {
	Eng *sim.Engine
	Net *netsim.Net
	Ov  *can.Overlay
	Cfg Config

	hosts *hostTable // shared by every shard of a ShardedSim
	live  int        // hosts in the table owned by this Sim
	phase *rng.Stream

	// Recycled heartbeat-plane messages (see the send helpers below).
	fullPool    []*fullMsg
	compactPool []*compactMsg
	requestPool []*requestMsg

	// Recycled on-demand reply tables: a FIFO queue ordered by
	// busyUntil, with replyHead marking the consumed prefix (see
	// replyTable below).
	replyPool []*replyBuf
	replyHead int

	// Recycled churn-path messages and scratch. The pools mirror the
	// heartbeat-plane message pools; the scratch slices are consumed
	// synchronously within a single join/takeover procedure (views store
	// Records by value, so nothing retains the backing arrays).
	announcePool []*announceMsg
	introPool    []*introMsg
	unionScratch []can.NodeID
	recScratch   []Record
	introScratch []Record

	// Sharded-simulation identity: parent is non-nil when this Sim is
	// one shard of a ShardedSim (sharing the overlay and a facet
	// transport and the host table), and shard is its index. All
	// cross-shard indirection (message rebinding, control-plane
	// scheduling) hangs off these two fields; both are nil/zero for a
	// serial Sim, and every helper below degenerates to the serial
	// behavior.
	parent *ShardedSim
	shard  int
}

// NewSim creates a protocol simulation over a d-dimensional CAN with
// its own event engine.
func NewSim(dims int, cfg Config) *Sim {
	return NewSimOn(sim.New(), dims, cfg)
}

// NewSimOn creates a protocol simulation on an existing engine, so the
// protocol plane can share virtual time with an execution plane (the
// scenario engine drives both off one clock).
func NewSimOn(eng *sim.Engine, dims int, cfg Config) *Sim {
	s := &Sim{
		Eng:   eng,
		Net:   netsim.New(eng, cfg.Latency),
		Ov:    can.NewOverlay(dims),
		Cfg:   cfg,
		hosts: &hostTable{},
		phase: rng.NewSplit(cfg.Seed, "proto.phase"),
	}
	s.Net.SetDeliverable(func(dst can.NodeID) bool {
		h := s.hosts.get(dst)
		return h != nil && h.alive
	})
	return s
}

// hostTable indexes live protocol hosts by node ID. Overlay IDs are
// sequential, non-negative and never reused, so the slice stays dense
// and a lookup is a bounds check and a load; departed nodes leave nil.
// A ShardedSim's shards share one table. Only membership operations
// write it, and those run on the control plane with every shard
// quiesced, so parallel windows read it freely.
type hostTable struct {
	byID []*Host
}

// get returns the live host for id: nil for departed, never-admitted
// and out-of-range IDs (including the -1 no-merge sentinel).
func (t *hostTable) get(id can.NodeID) *Host {
	if id < 0 || id >= can.NodeID(len(t.byID)) {
		return nil
	}
	return t.byID[id]
}

func (t *hostTable) put(h *Host) {
	for can.NodeID(len(t.byID)) <= h.id {
		t.byID = append(t.byID, nil)
	}
	t.byID[h.id] = h
}

// meanView returns the mean believed-neighbor count over the table's
// live hosts, 0 when there are none. Departures clear a host's slot in
// the same step that marks it dead, so every non-nil entry is live.
func (t *hostTable) meanView() float64 {
	entries, hosts := 0, 0
	for _, h := range t.byID {
		if h != nil {
			entries += len(h.view.entries)
			hosts++
		}
	}
	if hosts == 0 {
		return 0
	}
	return float64(entries) / float64(hosts)
}

// check verifies the table against the overlay, the sole membership
// source: every live overlay node has an alive host on the Sim that
// owner returns for it, no host outlives its overlay node, and live
// (the owning Sims' summed counts) matches the overlay's population.
func (t *hostTable) check(ov *can.Overlay, owner func(can.NodeID) *Sim, live int) error {
	nodes := ov.Nodes()
	for _, n := range nodes {
		h := t.get(n.ID)
		switch {
		case h == nil:
			return fmt.Errorf("proto: overlay node %d has no host", n.ID)
		case !h.alive:
			return fmt.Errorf("proto: host %d is in the table but not alive", n.ID)
		case h.s != owner(n.ID):
			return fmt.Errorf("proto: host %d sits on shard %d, not its assigned shard %d", n.ID, h.s.shard, owner(n.ID).shard)
		}
	}
	for id, h := range t.byID {
		if h != nil && ov.Node(can.NodeID(id)) == nil {
			return fmt.Errorf("proto: host %d has no live overlay node", id)
		}
	}
	if live != len(nodes) {
		return fmt.Errorf("proto: %d hosts counted live, overlay has %d nodes", live, len(nodes))
	}
	return nil
}

// Host returns the protocol host for a live node, or nil.
func (s *Sim) Host(id can.NodeID) *Host { return s.hosts.get(id) }

// Overlay returns the ground-truth overlay (the engine-agnostic
// accessor scenario drivers use; ShardedSim has the same method).
func (s *Sim) Overlay() *can.Overlay { return s.Ov }

// simOf resolves the Sim owning a node's shard (self when serial).
// Pooled messages are rebound to simOf(dst) at send time so delivery
// recycles into the destination's pool — state owned by the
// destination shard's worker.
func (s *Sim) simOf(id can.NodeID) *Sim {
	if s.parent != nil {
		return s.parent.simOf(id)
	}
	return s
}

// ctl returns the engine churn continuations belong on: the serial
// engine itself, or the sharded control plane — takeover procedures
// mutate hosts across shards and read the overlay, so they must run
// with every shard quiesced.
func (s *Sim) ctl() *sim.Engine {
	if s.parent != nil {
		return s.parent.ctl()
	}
	return s.Eng
}

// dims returns the overlay dimensionality (churn-driver hook).
func (s *Sim) dims() int { return s.Ov.Dims() }

// AliveHosts returns the number of live protocol hosts.
func (s *Sim) AliveHosts() int { return s.live }

// CheckMembership verifies that the host table and the overlay agree:
// the same IDs, every host alive. Tests and scenario assertions call
// it; the overlay's Nodes() snapshot is the membership drivers read.
func (s *Sim) CheckMembership() error {
	return s.hosts.check(s.Ov, func(can.NodeID) *Sim { return s }, s.live)
}

// Join admits a node at point p: the ground-truth overlay splits the
// zone, the splitting owner hands the newcomer the relevant slice of its
// neighbor table, and the owner announces the change to its former
// neighborhood (so that a join with no concurrent events leaves no
// broken links).
func (s *Sim) Join(p geom.Point) (*can.Node, error) {
	return s.JoinNode(p, nil)
}

// JoinNode is Join with node capabilities attached to the overlay
// record, for drivers that couple the protocol plane to an execution
// plane and need the heterogeneity-aware placement inputs populated.
func (s *Sim) JoinNode(p geom.Point, caps *resource.NodeCaps) (*can.Node, error) {
	owner := s.Ov.Owner(p)
	node, err := s.Ov.Join(p, caps)
	if err != nil {
		return nil, err
	}
	return s.completeJoin(node, owner), nil
}

// completeJoin runs the protocol side of an admission after the overlay
// split: host creation, the owner's table handoff, per-face discovery
// and the join announcements. Split out from JoinNode so a ShardedSim
// can register the node's shard between the overlay join and the first
// message (the transport routes by that assignment).
func (s *Sim) completeJoin(node *can.Node, owner *can.Node) *can.Node {
	now := s.Eng.Now()
	h := newHost(s, node.ID, node.Zone)
	s.hosts.put(h)
	s.live++

	if owner == nil {
		// First node: owns everything, knows no one.
		h.scheduleFirstTick(sim.Duration(s.phase.Float64() * float64(s.Cfg.HeartbeatPeriod)))
		return node
	}

	oh := s.hosts.get(owner.ID)
	// Snapshot the owner's pre-split table into scratch (the announce
	// loop below still needs it after the view mutates; Records are
	// stored by value everywhere, so the backing array is reusable).
	preRecs := oh.view.recordsInto(s.recScratch[:0])
	s.recScratch = preRecs

	// The splitter knows its own new zone and its new neighbor.
	oh.adoptZone(owner.Zone)
	oh.view.direct(h.selfRecord(), now)

	// Hand the newcomer the owner's record plus the slice of the
	// owner's table abutting the new zone (one full-style message).
	initial := append(s.introScratch[:0], oh.selfRecord())
	for _, rec := range preRecs {
		if _, _, ok := node.Zone.Abuts(rec.Zone); ok {
			initial = append(initial, rec)
		}
	}
	s.introScratch = initial
	for _, rec := range initial {
		h.view.direct(rec, now)
	}
	s.Net.Send(owner.ID, node.ID, FullMessageBytes(s.Ov.Dims(), len(initial)), netsim.KindFull, func(sim.Time) {})

	// Per-face neighbor discovery: a joining CAN node contacts the
	// owner of each face of its new zone (routing a short query along
	// that face), so it starts life knowing its tracked set — the
	// invariant the bounded-neighbor protocol maintains thereafter. The
	// splitter's bounded table alone cannot provide this. We account
	// one query and one reply per discovered neighbor and materialize
	// the result from ground truth (the routed lookup is exact at join
	// time).
	for _, nbID := range s.Ov.BoundedNeighborIDs(node.ID, s.Cfg.MaxPerFace) {
		nb := s.Ov.Node(nbID)
		if nb == nil || h.view.has(nbID) {
			continue
		}
		s.Net.Send(node.ID, nbID, RequestBytes(s.Ov.Dims()), netsim.KindRequest, func(sim.Time) {})
		s.Net.Send(nbID, node.ID, AnnounceBytes(s.Ov.Dims()), netsim.KindAnnounce, func(sim.Time) {})
		h.view.direct(Record{ID: nbID, Zone: nb.Zone.Clone()}, now)
		// The discovered neighbor learns the newcomer symmetrically.
		if nh := s.hosts.get(nbID); nh != nil && nh.alive {
			nh.view.direct(h.selfRecord(), now)
		}
	}

	// Announce the split to the owner's former neighborhood.
	newbie := h.selfRecord()
	splitter := oh.selfRecord()
	for _, rec := range preRecs {
		s.sendJoinIntro(owner.ID, rec.ID, splitter, newbie)
	}

	h.scheduleFirstTick(sim.Duration(s.phase.Float64() * float64(s.Cfg.HeartbeatPeriod)))
	return node
}

// LeaveVoluntary removes a node gracefully: it hands its zone and full
// neighbor table to its predetermined take-over node before departing.
func (s *Sim) LeaveVoluntary(id can.NodeID) error {
	h := s.hosts.get(id)
	if h == nil {
		return fmt.Errorf("proto: leave of unknown node %d", id)
	}
	now := s.Eng.Now()
	plan, hasPlan := s.Ov.Takeover(id)
	// The handoff payload lives in a pooled reply buffer: it is aliased
	// only by the in-flight message below and consumed (by-value absorbs
	// and id copies) at delivery, exactly the replyBuf retention window.
	table := s.replyTable(now, h.view)

	h.alive = false
	s.Eng.Cancel(h.tick)
	s.hosts.byID[id] = nil
	s.live--
	goneZone := h.zone.Clone()

	if _, err := s.Ov.Leave(id); err != nil {
		return err
	}
	if !hasPlan {
		return nil // last node
	}
	takerID := plan.Taker.ID
	mergedID := can.NodeID(-1)
	if plan.Merged != nil {
		mergedID = plan.Merged.ID
	}
	// Handoff message: the departing node's record plus its table.
	s.Net.Send(id, takerID, FullMessageBytes(s.Ov.Dims(), len(table)), netsim.KindFull, func(now sim.Time) {
		taker := s.hosts.get(takerID)
		if taker == nil || !taker.alive {
			return
		}
		s.executeTakeover(now, taker, id, goneZone, table, mergedID)
	})
	return nil
}

// Fail removes a node silently. The ground truth reassigns its zone
// immediately (take-over duty is predetermined), but protocol-side the
// take-over node only acts after the liveness timeout, using whatever
// copy of the failed node's table it retained from past heartbeats —
// under Compact that copy exists because take-over targets receive full
// tables; under Vanilla everyone has one; a missing or stale copy is
// precisely what produces lasting broken links.
func (s *Sim) Fail(id can.NodeID) error {
	h := s.hosts.get(id)
	if h == nil {
		return fmt.Errorf("proto: fail of unknown node %d", id)
	}
	plan, hasPlan := s.Ov.Takeover(id)
	h.alive = false
	s.Eng.Cancel(h.tick)
	s.hosts.byID[id] = nil
	s.live--
	goneZone := h.zone.Clone()

	if _, err := s.Ov.Leave(id); err != nil {
		return err
	}
	if !hasPlan {
		return nil
	}
	takerID := plan.Taker.ID
	mergedID := can.NodeID(-1)
	if plan.Merged != nil {
		mergedID = plan.Merged.ID
	}
	// The timeout continuation mutates the taker (possibly in another
	// shard) and reads the overlay, so it runs on the control plane. The
	// instant anchors to the caller's clock, not the control engine's: an
	// idle control engine's clock lags a global-phase caller arbitrarily
	// (RunBefore never advances an empty queue), and After on it would
	// schedule the takeover deep in the past.
	now := s.Eng.Now()
	if c := s.ctl().Now(); c > now {
		now = c
	}
	s.ctl().At(now.Add(s.Cfg.timeout()), func(now sim.Time) {
		taker := s.hosts.get(takerID)
		if taker == nil || !taker.alive {
			return
		}
		var recs []Record
		if st := taker.lastTables[id]; st != nil {
			recs = st.recs
		}
		s.executeTakeover(now, taker, id, goneZone, recs, mergedID)
	})
	return nil
}

// executeTakeover is the take-over node's local procedure: reorganize
// zones per the predetermined plan and announce the new ownership to
// every node believed affected — the union of the taker's own view and
// the departed node's (possibly stale) table. Nodes missing from that
// union are exactly the broken links the heartbeat schemes then do or
// do not repair.
func (s *Sim) executeTakeover(now sim.Time, taker *Host, gone can.NodeID, goneZone geom.Zone, goneTable []Record, mergedID can.NodeID) {
	// Message sends below pin their transmission instant to the
	// handler's `now`. Takeovers run on the control plane, where every
	// shard clock has been advanced to that instant, so it equals the
	// facet clock.
	delete(taker.lastTables, gone)
	taker.view.bury(gone, now.Add(s.Cfg.tombstoneTTL()))

	// When the taker comes from deeper in the sibling subtree, it first
	// hands its current zone to its pair partner, which merges.
	if mergedID >= 0 {
		if mh := s.hosts.get(mergedID); mh != nil && mh.alive {
			recs := s.replyTable(now, taker.view) // pooled: consumed at delivery
			size := FullMessageBytes(s.Ov.Dims(), len(recs))
			// An envelope, so the delivery interleaves with same-instant
			// announce arrivals at the merge partner in emission order —
			// the serial engine's tie-break — rather than jumping the
			// queue on the global plane. The delivery only touches the
			// partner's own state, so it is safe inside the partner's
			// shard window.
			s.Net.SendMsgAt(now, taker.id, mergedID, size, netsim.KindFull,
				&mergeMsg{s: s.simOf(mergedID), dst: mergedID, recs: recs})
		}
	}

	gt := s.Ov.Node(taker.id)
	if gt == nil {
		return
	}
	targets := s.unionTargets(taker.view, goneTable)
	taker.adoptZone(gt.Zone)
	taker.absorb(now, goneTable)

	self := taker.selfRecord()
	for _, t := range targets {
		if t == taker.id || t == gone {
			continue
		}
		s.sendAnnounceAt(now, taker.id, t, gone, self)
	}
}

// unionTargets merges a view's believed-neighbor ids with a table's ids
// into a sorted, deduplicated scratch slice — the announcement fan-out
// of a take-over. Both inputs are id-ascending (recs is a table from
// the wire), so this is one merged walk. The result is valid until the
// next call; callers finish iterating before anything else can run one.
func (s *Sim) unionTargets(v *view, recs []Record) []can.NodeID {
	ids := s.unionScratch[:0]
	es := v.entries
	for i, j := 0, 0; i < len(es) || j < len(recs); {
		var id can.NodeID
		if j == len(recs) || (i < len(es) && es[i].rec.ID < recs[j].ID) {
			id = es[i].rec.ID
			i++
		} else {
			id = recs[j].ID
			j++
		}
		if n := len(ids); n == 0 || ids[n-1] != id {
			ids = append(ids, id)
		}
	}
	s.unionScratch = ids
	return ids
}

// Message send helpers. Payloads are captured by value at send time.
// The per-round paths (full, compact, request) travel as pooled message
// structs through Net.SendMsg, so a steady-state heartbeat round
// allocates no closures; the churn-path messages (announce, join intro,
// handoffs) keep plain closures — they are rare and often capture
// freshly built tables anyway.

// replyBuf is one reusable table for adaptive receiveRequest replies.
//
// Retention analysis (mirrors the heartbeat tableBuf double buffer): a
// reply's record slice is aliased by its in-flight fullMsg from send
// until delivery, i.e. for exactly one network latency. At delivery,
// receiveFull copies the table into the receiver-owned savedTable and
// fullMsg.table is nilled, so nothing references the buffer afterwards.
// Unlike the heartbeat path, replies are demand-driven — several can be
// in flight at once — so instead of two alternating buffers we keep a
// pool stamped with busyUntil = send time + latency. A buffer is
// reusable only when strictly now > busyUntil: at now == busyUntil the
// event queue's seq ordering may run an incoming request BEFORE an
// in-flight reply delivery at the same timestamp, and rebuilding the
// buffer then would corrupt the not-yet-delivered payload.
type replyBuf struct {
	recs      []Record
	busyUntil sim.Time
}

// replyTable builds the full-table payload for an on-demand reply into
// a pooled buffer, in the ascending-id wire order. The pool grows to the
// peak number of replies in flight within one latency window and is
// reused thereafter.
func (s *Sim) replyTable(now sim.Time, v *view) []Record {
	// The pool is a FIFO queue: virtual time never decreases and the
	// latency is constant, so buffers are enqueued with non-decreasing
	// busyUntil and the head is always the earliest to free. One head
	// check per call replaces a free-slot scan that went quadratic in
	// bursts — a synchronized heartbeat round issues all its replies
	// inside one latency window, while every buffer is still busy.
	var buf *replyBuf
	if s.replyHead < len(s.replyPool) && now > s.replyPool[s.replyHead].busyUntil {
		buf = s.replyPool[s.replyHead]
		s.replyHead++
		// Compact once the consumed prefix outgrows the live tail;
		// each compaction copies at most as many entries as were
		// consumed since the last one, so the queue stays amortized
		// O(1) and the backing array stops growing at the peak number
		// of replies in flight within one latency window.
		if s.replyHead*2 >= len(s.replyPool) {
			n := copy(s.replyPool, s.replyPool[s.replyHead:])
			s.replyPool = s.replyPool[:n]
			s.replyHead = 0
		}
	} else {
		buf = &replyBuf{}
	}
	buf.recs = v.recordsInto(buf.recs[:0])
	// Serial retention is exactly one latency (the delivery instant,
	// with the strict > reuse check covering same-instant ordering).
	// Sharded retention is two: the delivery may execute on another
	// shard's worker anywhere inside the window containing it, and
	// windows span up to one latency — retiring the buffer a full
	// window after delivery keeps the rebuild in a strictly later
	// window, whose barrier orders it after the read.
	retain := s.Net.Latency()
	if s.parent != nil {
		retain *= 2
	}
	buf.busyUntil = now.Add(retain)
	s.replyPool = append(s.replyPool, buf)
	return buf.recs
}

// MeanViewSize reports the mean believed-neighbor count across live
// hosts (0 with no hosts). Order-independent, so it is safe as a
// telemetry gauge.
func (s *Sim) MeanViewSize() float64 { return s.hosts.meanView() }

type fullMsg struct {
	s      *Sim
	self   Record
	table  []Record
	ranked bool
	dst    can.NodeID
}

func (m *fullMsg) Deliver(now sim.Time) {
	s, dst, self, table, ranked := m.s, m.dst, m.self, m.table, m.ranked
	m.table = nil
	s.fullPool = append(s.fullPool, m)
	if h := s.hosts.get(dst); h != nil {
		h.receiveFull(now, self, table, ranked)
	}
}

func (s *Sim) sendFull(src, dst can.NodeID, self Record, table []Record, ranked bool) {
	var m *fullMsg
	if k := len(s.fullPool); k > 0 {
		m = s.fullPool[k-1]
		s.fullPool[k-1] = nil
		s.fullPool = s.fullPool[:k-1]
	} else {
		m = &fullMsg{}
	}
	// Rebind to the destination's Sim: delivery then recycles into the
	// right pool (each pool has a single writer — its own shard's
	// worker). Serial: simOf(dst) == s.
	m.s = s.simOf(dst)
	m.self, m.table, m.ranked, m.dst = self, table, ranked, dst
	s.Net.SendMsg(src, dst, FullMessageBytes(s.Ov.Dims(), len(table)), netsim.KindFull, m)
}

type compactMsg struct {
	s      *Sim
	self   Record
	ranked bool
	dst    can.NodeID
}

func (m *compactMsg) Deliver(now sim.Time) {
	s, dst, self, ranked := m.s, m.dst, m.self, m.ranked
	s.compactPool = append(s.compactPool, m)
	if h := s.hosts.get(dst); h != nil {
		h.receiveCompact(now, self, ranked)
	}
}

func (s *Sim) sendCompact(src, dst can.NodeID, self Record, dims int, ranked bool) {
	var m *compactMsg
	if k := len(s.compactPool); k > 0 {
		m = s.compactPool[k-1]
		s.compactPool[k-1] = nil
		s.compactPool = s.compactPool[:k-1]
	} else {
		m = &compactMsg{}
	}
	m.s = s.simOf(dst)
	m.self, m.ranked, m.dst = self, ranked, dst
	s.Net.SendMsg(src, dst, CompactMessageBytes(dims), netsim.KindCompact, m)
}

type requestMsg struct {
	s    *Sim
	self Record
	dst  can.NodeID
}

func (m *requestMsg) Deliver(now sim.Time) {
	s, dst, self := m.s, m.dst, m.self
	s.requestPool = append(s.requestPool, m)
	if h := s.hosts.get(dst); h != nil {
		h.receiveRequest(now, self)
	}
}

// deliverMergeHandoff applies a merge handoff at the taker's pair
// partner: adopt the merged ground-truth zone, absorb the taker's
// table, and announce the new ownership to everyone either side
// believed affected. s must be the partner's own sim, so scratch and
// pools stay shard-local whichever worker delivers.
func deliverMergeHandoff(s *Sim, now sim.Time, dst can.NodeID, recs []Record) {
	m := s.hosts.get(dst)
	gm := s.Ov.Node(dst)
	if m == nil || !m.alive || gm == nil {
		return
	}
	targets := s.unionTargets(m.view, recs)
	m.adoptZone(gm.Zone)
	m.absorb(now, recs)
	self := m.selfRecord()
	for _, t := range targets {
		if t != m.id {
			s.sendAnnounceAt(now, m.id, t, -1, self)
		}
	}
}

// mergeMsg is a merge handoff in flight. Merges are rare churn events,
// so it is not pooled.
type mergeMsg struct {
	s    *Sim // the partner's sim
	dst  can.NodeID
	recs []Record
}

func (m *mergeMsg) Deliver(now sim.Time) {
	deliverMergeHandoff(m.s, now, m.dst, m.recs)
}

// announceMsg is a pooled take-over/merge announcement (the churn-path
// analogue of the heartbeat message pools: the struct recycles itself
// on delivery, so announcement storms under churn allocate nothing
// steady-state).
type announceMsg struct {
	s     *Sim
	dst   can.NodeID
	gone  can.NodeID
	owner Record
}

func (m *announceMsg) Deliver(now sim.Time) {
	s, dst, gone, owner := m.s, m.dst, m.gone, m.owner
	s.announcePool = append(s.announcePool, m)
	if h := s.hosts.get(dst); h != nil {
		h.receiveAnnounce(now, gone, owner)
	}
}

func (s *Sim) sendAnnounce(src, dst can.NodeID, gone can.NodeID, owner Record) {
	s.sendAnnounceAt(s.Eng.Now(), src, dst, gone, owner)
}

// sendAnnounceAt is sendAnnounce with an explicit transmission time, for
// churn handlers that carry their own instant (see netsim.SendMsgAt).
// With now == s.Eng.Now() it is sendAnnounce.
func (s *Sim) sendAnnounceAt(now sim.Time, src, dst can.NodeID, gone can.NodeID, owner Record) {
	var m *announceMsg
	if k := len(s.announcePool); k > 0 {
		m = s.announcePool[k-1]
		s.announcePool[k-1] = nil
		s.announcePool = s.announcePool[:k-1]
	} else {
		m = &announceMsg{}
	}
	m.s = s.simOf(dst)
	m.dst, m.gone, m.owner = dst, gone, owner
	s.Net.SendMsgAt(now, src, dst, AnnounceBytes(s.Ov.Dims()), netsim.KindAnnounce, m)
}

// introMsg is a pooled join introduction: one wire message carrying the
// splitter's shrunk zone and the newcomer's record.
type introMsg struct {
	s        *Sim
	dst      can.NodeID
	splitter Record
	newbie   Record
}

func (m *introMsg) Deliver(now sim.Time) {
	s, dst, splitter, newbie := m.s, m.dst, m.splitter, m.newbie
	s.introPool = append(s.introPool, m)
	if h := s.hosts.get(dst); h != nil {
		h.receiveAnnounce(now, -1, splitter)
		h.receiveAnnounce(now, -1, newbie)
	}
}

func (s *Sim) sendJoinIntro(src, dst can.NodeID, splitter, newbie Record) {
	var m *introMsg
	if k := len(s.introPool); k > 0 {
		m = s.introPool[k-1]
		s.introPool[k-1] = nil
		s.introPool = s.introPool[:k-1]
	} else {
		m = &introMsg{}
	}
	m.s = s.simOf(dst)
	m.dst, m.splitter, m.newbie = dst, splitter, newbie
	s.Net.SendMsg(src, dst, AnnounceBytes(s.Ov.Dims()), netsim.KindAnnounce, m)
}

func (s *Sim) sendRequest(src, dst can.NodeID, self Record) {
	var m *requestMsg
	if k := len(s.requestPool); k > 0 {
		m = s.requestPool[k-1]
		s.requestPool[k-1] = nil
		s.requestPool = s.requestPool[:k-1]
	} else {
		m = &requestMsg{}
	}
	m.s = s.simOf(dst)
	m.self, m.dst = self, dst
	s.Net.SendMsg(src, dst, RequestBytes(s.Ov.Dims()), netsim.KindRequest, m)
}

// BrokenLinks counts, across all live nodes, ground-truth neighbor
// relationships missing from the owner's view (the quantity plotted in
// Figure 7) and, separately, relationships present but with an
// out-of-date zone. Under bounded tracking (MaxPerFace > 0) the ground
// truth is the bounded per-face set a correct node would maintain;
// otherwise it is full face-sharing adjacency.
func (s *Sim) BrokenLinks() (missing, stale int) {
	perFace := s.Cfg.MaxPerFace
	for _, n := range s.Ov.Nodes() {
		h := s.hosts.get(n.ID)
		nbrs := s.Ov.BoundedNeighborIDs(n.ID, perFace)
		if h == nil {
			missing += len(nbrs)
			continue
		}
		for _, nbID := range nbrs {
			nb := s.Ov.Node(nbID)
			z, ok := h.view.zoneOf(nbID)
			switch {
			case !ok:
				missing++
			case !z.Equal(nb.Zone):
				stale++
			}
		}
	}
	return missing, stale
}
