// Package netsim is the simulated message transport underneath the CAN
// maintenance protocols. It delivers messages through the event engine
// with a fixed latency and keeps the per-node message and byte counters
// that Section IV's cost analysis is about: the number of messages per
// node per minute and the volume of messages per node per minute.
package netsim

import (
	"hetgrid/internal/can"
	"hetgrid/internal/perf"
	"hetgrid/internal/sim"
)

var (
	cntMsgsSent    = perf.NewCounter("net.msgs_sent")
	cntBytesSent   = perf.NewCounter("net.bytes_sent")
	cntDropped     = perf.NewCounter("net.msgs_dropped")
	cntLinkDropped = perf.NewCounter("net.msgs_link_dropped")
)

// Kind classifies a message for per-type traffic accounting, so the
// heartbeat-volume figures can split maintenance cost by message shape
// (full table vs compact digest vs request vs announce) rather than
// reporting one aggregate.
type Kind uint8

const (
	KindOther    Kind = iota // uncategorized (tests, future protocols)
	KindFull                 // full neighbor-table heartbeat / handoff
	KindCompact              // compact self-record digest
	KindRequest              // adaptive on-demand table request
	KindAnnounce             // join/leave announce intro
	numKinds
)

// AllKinds lists the kinds in stable display order.
var AllKinds = [...]Kind{KindOther, KindFull, KindCompact, KindRequest, KindAnnounce}

func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindCompact:
		return "compact"
	case KindRequest:
		return "request"
	case KindAnnounce:
		return "announce"
	default:
		return "other"
	}
}

// Counters accumulates traffic totals.
type Counters struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// Net is the transport. Delivery is reliable and ordered per the event
// queue; failures are modeled at the protocol layer (a dead node's
// inbound messages are dropped by the delivery hook).
type Net struct {
	eng     *sim.Engine
	latency sim.Duration

	total      Counters
	window     Counters
	kindTotal  [numKinds]Counters
	kindWindow [numKinds]Counters
	perNode    map[can.NodeID]*Counters

	// deliverable reports whether dst can still receive messages;
	// nil means always deliverable.
	deliverable func(dst can.NodeID) bool

	// linkFault reports whether the src→dst link is currently down;
	// nil means all links are healthy. Evaluated at delivery time, the
	// same convention as the deliverable check: a message arriving
	// while its link is down is lost (never delayed or retried), while
	// one still in flight when the link heals is delivered normally.
	linkFault func(src, dst can.NodeID) bool
	linkDrops int64

	envPool []*envelope // recycled SendMsg envelopes

	// Sharded-transport facet identity: parent is non-nil when this Net
	// is one shard's facet of a ShardedNet, and shard is its index.
	// Facets route cross-shard traffic through the parent's mailboxes
	// and keep all counter/pool state shard-local (see sharded.go).
	parent *ShardedNet
	shard  int
}

// New creates a transport on the given engine with the given one-way
// latency.
func New(eng *sim.Engine, latency sim.Duration) *Net {
	return &Net{
		eng:     eng,
		latency: latency,
		perNode: make(map[can.NodeID]*Counters),
	}
}

// SetDeliverable installs the liveness check used to drop messages to
// departed nodes.
func (n *Net) SetDeliverable(f func(dst can.NodeID) bool) { n.deliverable = f }

// SetLinkFault installs the link-level fault oracle used to drop
// messages crossing a partitioned or severed link. It composes with the
// deliverable check: a message is delivered only when the destination
// is alive and the src→dst link is up at arrival time. Passing nil
// heals everything.
func (n *Net) SetLinkFault(f func(src, dst can.NodeID) bool) { n.linkFault = f }

// LinkDrops reports how many messages were lost to link faults since
// construction (a subset of the overall drop accounting, kept separate
// so scenarios can assert that a partition actually severed traffic).
func (n *Net) LinkDrops() int64 { return n.linkDrops }

// linkDown reports and counts a fault drop for the src→dst link. The
// callers guard with `n.linkFault != nil` so the fault-free hot path
// stays a single inlined nil-check; this slow path only runs when a
// fault oracle is installed.
func (n *Net) linkDown(src, dst can.NodeID) bool {
	if !n.linkFault(src, dst) {
		return false
	}
	cntLinkDropped.Inc()
	n.linkDrops++
	return true
}

// Latency returns the one-way delivery latency.
func (n *Net) Latency() sim.Duration { return n.latency }

func (n *Net) node(id can.NodeID) *Counters {
	c := n.perNode[id]
	if c == nil {
		c = &Counters{}
		n.perNode[id] = c
	}
	return c
}

func (n *Net) countSend(src can.NodeID, size int, kind Kind) {
	cntMsgsSent.Inc()
	cntBytesSent.Add(int64(size))
	n.total.MsgsSent++
	n.total.BytesSent += int64(size)
	n.window.MsgsSent++
	n.window.BytesSent += int64(size)
	n.kindTotal[kind].MsgsSent++
	n.kindTotal[kind].BytesSent += int64(size)
	n.kindWindow[kind].MsgsSent++
	n.kindWindow[kind].BytesSent += int64(size)
	sc := n.node(src)
	sc.MsgsSent++
	sc.BytesSent += int64(size)
}

func (n *Net) countRecv(dst can.NodeID, size int, kind Kind) {
	n.total.MsgsRecv++
	n.total.BytesRecv += int64(size)
	n.window.MsgsRecv++
	n.window.BytesRecv += int64(size)
	n.kindTotal[kind].MsgsRecv++
	n.kindTotal[kind].BytesRecv += int64(size)
	n.kindWindow[kind].MsgsRecv++
	n.kindWindow[kind].BytesRecv += int64(size)
	dc := n.node(dst)
	dc.MsgsRecv++
	dc.BytesRecv += int64(size)
}

// Send transmits size bytes from src to dst and invokes deliver at
// arrival (unless dst is gone by then). Sending is counted immediately;
// receiving at delivery.
//
// On a sharded facet the delivery runs on the serial control plane:
// closure sends are the churn-path messages (handoffs, takeover
// continuations), whose delivery procedures mutate hosts across shard
// boundaries and share per-Sim scratch, so they are exactly the events
// the global phase exists for. Counting on the sending facet is safe
// there (the control phase is single-threaded) and the merged totals
// are sums, so attribution is unaffected.
func (n *Net) Send(src, dst can.NodeID, size int, kind Kind, deliver func(now sim.Time)) {
	n.countSend(src, size, kind)

	arrive := func(now sim.Time) {
		if n.deliverable != nil && !n.deliverable(dst) {
			cntDropped.Inc()
			return
		}
		if n.linkFault != nil && n.linkDown(src, dst) {
			return
		}
		n.countRecv(dst, size, kind)
		deliver(now)
	}
	at := n.eng.Now().Add(n.latency)
	if n.parent != nil {
		n.parent.se.PostGlobal(n.shard, at, uint64(src), arrive)
		return
	}
	n.eng.At(at, arrive)
}

// Deliverable is a message that knows how to apply itself at arrival.
// Protocols that send the same message shapes every round implement it
// on pooled structs so that a send costs no allocation (Net.Send costs
// one closure per message, which dominated heartbeat-round profiles).
type Deliverable interface {
	Deliver(now sim.Time)
}

// envelope carries one in-flight SendMsg through the event queue. It
// implements sim.Caller and returns itself to the transport's pool as
// soon as it fires.
type envelope struct {
	net  *Net
	src  can.NodeID
	dst  can.NodeID
	size int
	kind Kind
	msg  Deliverable
}

func (e *envelope) Call(now sim.Time) {
	n, src, dst, size, kind, msg := e.net, e.src, e.dst, e.size, e.kind, e.msg
	e.msg = nil
	n.envPool = append(n.envPool, e)
	if n.deliverable != nil && !n.deliverable(dst) {
		cntDropped.Inc()
		return
	}
	if n.linkFault != nil && n.linkDown(src, dst) {
		return
	}
	n.countRecv(dst, size, kind)
	msg.Deliver(now)
}

// SendMsg is Send for Deliverable messages: identical counting, drop
// semantics and delivery timing, with the closure replaced by a pooled
// envelope so steady-state traffic does not allocate.
//
// On a sharded facet, EVERY send — same-shard included — rebinds the
// envelope to the destination facet and posts it through the engine's
// mailboxes, keyed by the sending node's id: same-instant arrivals at a
// destination then fire in (sender id, emission) order, a pure property
// of the model, which is what makes a run's output independent of the
// shard partition (see sim.ShardedEngine.Post). The liveness/fault
// checks, receive counters and pool recycling all run on state owned by
// the destination shard's worker. The envelope is taken from the
// sender's free list (its own worker's), so each pool stays
// single-writer; envelopes migrate between pools along traffic, which
// is harmless. Nothing is delayed by the detour: an arrival at now+L
// can never land inside the window that sent it, so mailbox flush and
// direct scheduling reach the same window either way.
func (n *Net) SendMsg(src, dst can.NodeID, size int, kind Kind, msg Deliverable) {
	n.SendMsgAt(n.eng.Now(), src, dst, size, kind, msg)
}

// SendMsgAt is SendMsg with an explicit transmission time, for churn
// handlers that carry their own instant. With sent == n.eng.Now() it is
// exactly SendMsg.
func (n *Net) SendMsgAt(sent sim.Time, src, dst can.NodeID, size int, kind Kind, msg Deliverable) {
	n.countSend(src, size, kind)

	var env *envelope
	if k := len(n.envPool); k > 0 {
		env = n.envPool[k-1]
		n.envPool[k-1] = nil
		n.envPool = n.envPool[:k-1]
	} else {
		env = &envelope{net: n}
	}
	env.src, env.dst, env.size, env.kind, env.msg = src, dst, size, kind, msg
	if n.parent != nil {
		ds := n.parent.shardOf(dst)
		env.net = n.parent.facets[ds]
		n.parent.se.Post(n.shard, ds, sent.Add(n.latency), uint64(src), env)
		return
	}
	n.eng.AtCall(sent.Add(n.latency), env)
}

// Total returns cumulative counters since construction.
func (n *Net) Total() Counters { return n.total }

// Window returns counters accumulated since the last ResetWindow.
func (n *Net) Window() Counters { return n.window }

// KindTotal returns cumulative counters for one message kind.
func (n *Net) KindTotal(k Kind) Counters { return n.kindTotal[k] }

// KindWindow returns one kind's counters since the last ResetWindow.
func (n *Net) KindWindow(k Kind) Counters { return n.kindWindow[k] }

// ResetWindow zeroes the measurement window (used to exclude the
// initial-join warmup from steady-state cost measurements).
func (n *Net) ResetWindow() {
	n.window = Counters{}
	n.kindWindow = [numKinds]Counters{}
}

// Node returns the cumulative counters for one node (zero counters if it
// never communicated).
func (n *Net) Node(id can.NodeID) Counters {
	if c := n.perNode[id]; c != nil {
		return *c
	}
	return Counters{}
}
