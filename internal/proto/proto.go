// Package proto implements the CAN maintenance protocols of Section IV:
// vanilla heartbeats (full neighbor tables to every neighbor), compact
// heartbeats (full tables only to the split-history-predetermined
// take-over node, aggregated load summaries to everyone else), and
// adaptive heartbeats (compact plus an on-demand full-update request
// when a node detects a broken link on one of its zone edges).
//
// The package separates ground truth from knowledge. The can.Overlay
// records who actually owns which zone at every instant; each live node
// additionally runs a Host holding its local view — the neighbor table
// it has learned through the protocol. Views lag reality when joins,
// leaves and failures overlap within a heartbeat period; the oracle in
// Sim.BrokenLinks measures exactly that lag, which is the quantity
// plotted in Figure 7. Message counts and volumes flow through netsim
// and produce Figure 8.
package proto

import (
	"fmt"

	"hetgrid/internal/sim"
)

// Scheme selects the heartbeat protocol.
type Scheme int

const (
	// Vanilla sends the sender's complete neighbor table to every
	// neighbor in every heartbeat: O(d²) expected volume per node.
	Vanilla Scheme = iota
	// Compact sends the complete table only to the sender's take-over
	// node; other neighbors receive the sender's own record plus
	// per-dimension aggregated load: O(d) expected volume.
	Compact
	// Adaptive is Compact plus broken-link detection: a node that finds
	// one of its zone faces uncovered by known neighbors broadcasts a
	// full-update request, and each neighbor replies with its complete
	// table.
	Adaptive
)

var schemeNames = [...]string{Vanilla: "vanilla", Compact: "compact", Adaptive: "adaptive"}

// String returns the scheme name used in the paper's figures.
func (s Scheme) String() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme returns the scheme whose String is name.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("proto: unknown protocol %q (vanilla, compact or adaptive)", name)
}

// Config holds protocol parameters.
type Config struct {
	Scheme Scheme
	// HeartbeatPeriod is the interval between a node's heartbeat rounds.
	HeartbeatPeriod sim.Duration
	// TimeoutPeriods is the number of heartbeat periods of silence after
	// which a neighbor is presumed dead (and after which the take-over
	// node for a failed node executes the take-over).
	TimeoutPeriods float64
	// TombstonePeriods is how long a removed neighbor is remembered so
	// that stale third-party records cannot resurrect it.
	TombstonePeriods float64
	// Latency is the one-way message latency.
	Latency sim.Duration
	// RequestMinGapPeriods throttles adaptive full-update requests: a
	// host issues at most one request per this many periods.
	RequestMinGapPeriods float64
	// PassiveTTLPeriods bounds how long a passive cached record (a
	// neighbor hint that is neither ranked by us nor ranking us) is
	// retained without any refresh. Stale hints are pure noise — and
	// without a TTL, views grow monotonically under churn.
	PassiveTTLPeriods float64
	// MaxPerFace bounds the tracked neighbor set: per face (dimension ×
	// direction) a node actively maintains at most this many abutters,
	// chosen by largest shared-face measure. This is what keeps
	// per-node state and messaging O(d) — the premise of the paper's
	// Section IV-A cost analysis — in regimes (n ≪ 2^d) where raw
	// face-sharing adjacency would approach all-pairs. Nodes still
	// heartbeat anyone who recently heartbeated them (reciprocal
	// links), so asymmetric rankings cannot silently go stale. Zero
	// disables the bound (full adjacency tracking).
	MaxPerFace int
	// Seed drives heartbeat phase offsets.
	Seed int64
}

// DefaultConfig returns the parameters used in the evaluation: 60 s
// heartbeats, 2.5-period timeout, 100 ms latency.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme:               scheme,
		HeartbeatPeriod:      60 * sim.Second,
		TimeoutPeriods:       2.5,
		TombstonePeriods:     3,
		Latency:              100 * sim.Millisecond,
		RequestMinGapPeriods: 1,
		PassiveTTLPeriods:    25,
		MaxPerFace:           2,
		Seed:                 1,
	}
}

func (c Config) passiveTTL() sim.Duration {
	return sim.Duration(float64(c.HeartbeatPeriod) * c.PassiveTTLPeriods)
}

func (c Config) timeout() sim.Duration {
	return sim.Duration(float64(c.HeartbeatPeriod) * c.TimeoutPeriods)
}

func (c Config) tombstoneTTL() sim.Duration {
	return sim.Duration(float64(c.HeartbeatPeriod) * c.TombstonePeriods)
}

func (c Config) requestMinGap() sim.Duration {
	return sim.Duration(float64(c.HeartbeatPeriod) * c.RequestMinGapPeriods)
}

// Wire format sizing (Section IV-A's cost model). A neighbor record
// carries a node id, a load digest, and its zone corners quantized to 2
// bytes per bound per dimension — the compact encoding a production
// implementation ships (full-precision coordinates only matter
// locally). A record is therefore nearly constant-size, so a full table
// of O(d) neighbors costs O(d) bytes and a vanilla node's volume per
// minute is O(d)·O(d) = O(d²), while a compact heartbeat — one record
// plus a fixed-size aggregated-load digest — keeps per-node volume
// close to O(d), matching the paper's analysis.
const (
	headerBytes     = 32
	recordFixed     = 16 // id + load digest
	recordPerDim    = 4  // quantized zone corners (2×2 bytes)
	aggFixed        = 32 // aggregated-load digest header
	aggPerDim       = 2  // quantized per-dimension aggregate
	requestOverhead = 8
)

// RecordBytes is the wire size of one neighbor record in d dimensions.
func RecordBytes(d int) int { return recordFixed + recordPerDim*d }

// FullMessageBytes is the wire size of a heartbeat carrying the
// sender's record plus n neighbor records.
func FullMessageBytes(d, n int) int { return headerBytes + (n+1)*RecordBytes(d) }

// CompactMessageBytes is the wire size of a compact heartbeat: the
// sender's record plus the aggregated-load digest.
func CompactMessageBytes(d int) int { return headerBytes + RecordBytes(d) + aggFixed + aggPerDim*d }

// AnnounceBytes is the wire size of a take-over or join announcement
// (two records: the subject and the new owner).
func AnnounceBytes(d int) int { return headerBytes + 2*RecordBytes(d) }

// RequestBytes is the wire size of a full-update request.
func RequestBytes(d int) int { return headerBytes + RecordBytes(d) + requestOverhead }
