package metrics

import "io"

// ShardedPlane adapts per-shard metric facets to an ordinary Plane.
//
// A sharded simulation keeps its observable state in per-shard facets
// (host counts and views, transport counters) that workers mutate with
// zero cross-shard sharing inside a parallel window. The plane's sampler is
// a control-plane actor (Plane.Attach on a sim.ShardedEngine schedules
// it on the serial global engine), so every sampling pass runs at a
// window barrier: all shards quiesced, all clocks aligned. At that
// instant a ShardedPlane registration reads each facet in ascending
// shard order and reduces the values into one merged sample.
//
// Two streams come out of a sampling pass:
//
//   - The merged series, recorded on the wrapped Plane under the same
//     names and export schema the serial registration uses. Because
//     sample times, dormancy decisions and the reductions (integer
//     sums, global ratios) are partition-independent, the merged
//     stream is a pure model property: same seed ⇒ byte-identical
//     JSONL for any shard count S and worker count W.
//   - Per-shard facet series (point Node = shard index), kept outside
//     the Plane's canonical export because their values are inherently
//     S-dependent. They exist for skew diagnostics: FacetSeries and
//     WriteFacetJSONL expose them explicitly.
//
// Register sharded sources only after Plane.Attach: counter baselines
// are captured at registration, mirroring how Attach baselines serial
// counters.
type ShardedPlane struct {
	p      *Plane
	shards int
	facets []*Series
}

// NewShardedPlane wraps a plane for an S-shard simulation. The plane
// should already be attached to the sharded engine.
func NewShardedPlane(p *Plane, shards int) *ShardedPlane {
	if shards < 1 {
		panic("metrics: sharded plane needs at least one shard")
	}
	return &ShardedPlane{p: p, shards: shards}
}

// Shards returns the facet count S.
func (sp *ShardedPlane) Shards() int { return sp.shards }

// Plane returns the wrapped plane carrying the merged series.
func (sp *ShardedPlane) Plane() *Plane { return sp.p }

func (sp *ShardedPlane) newFacet(name string) *Series {
	s := &Series{Name: name, pts: make([]Point, 0, sp.p.maxPts)}
	sp.facets = append(sp.facets, s)
	return s
}

// RegisterSumGauge registers a gauge whose merged value is the sum of
// fn over shards (emitted with node -1, like a serial scalar gauge).
// fn(shard) runs at barriers only and must not mutate simulation state.
func (sp *ShardedPlane) RegisterSumGauge(name string, fn func(shard int) float64) {
	facet := sp.newFacet(name)
	sp.p.RegisterGauge(name, func(k *Sink) {
		sum := 0.0
		for sh := 0; sh < sp.shards; sh++ {
			v := fn(sh)
			facet.record(Point{T: k.t, Node: int64(sh), V: v})
			sum += v
		}
		k.Emit(-1, sum)
	})
}

// RegisterRatioGauge registers a gauge whose merged value is
// Σnum/Σden over shards (0 when Σden is 0) — the global mean of a
// per-entity quantity, e.g. mean view size over all hosts. The facet
// series records each shard's own ratio.
func (sp *ShardedPlane) RegisterRatioGauge(name string, fn func(shard int) (num, den float64)) {
	facet := sp.newFacet(name)
	sp.p.RegisterGauge(name, func(k *Sink) {
		var nums, dens float64
		for sh := 0; sh < sp.shards; sh++ {
			num, den := fn(sh)
			fv := 0.0
			if den != 0 {
				fv = num / den
			}
			facet.record(Point{T: k.t, Node: int64(sh), V: fv})
			nums += num
			dens += den
		}
		if dens == 0 {
			k.Emit(-1, 0)
			return
		}
		k.Emit(-1, nums/dens)
	})
}

// RegisterSumCounter registers a cumulative counter summed over shards.
// The merged series records the per-interval delta of the sum at node
// -1 — the exact export semantics of a serial Plane counter — and the
// facet series records each shard's own delta. Baselines are captured
// here, so register after the simulation's setup traffic if that
// traffic should not count.
func (sp *ShardedPlane) RegisterSumCounter(name string, fn func(shard int) int64) {
	facet := sp.newFacet(name)
	last := make([]int64, sp.shards)
	for sh := range last {
		last[sh] = fn(sh)
	}
	sp.p.RegisterGauge(name, func(k *Sink) {
		var sum int64
		for sh := 0; sh < sp.shards; sh++ {
			cur := fn(sh)
			d := cur - last[sh]
			last[sh] = cur
			facet.record(Point{T: k.t, Node: int64(sh), V: float64(d)})
			sum += d
		}
		k.Emit(-1, float64(sum))
	})
}

// FacetSeries returns the per-shard series for a registered name (point
// Node is the shard index), or nil. Facet series are diagnostics: they
// are excluded from the wrapped plane's export because their contents
// depend on the shard partition.
func (sp *ShardedPlane) FacetSeries(name string) *Series {
	for _, s := range sp.facets {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteFacetJSONL exports every per-shard facet series (node = shard
// index) in registration order, stamped with the run label.
func (sp *ShardedPlane) WriteFacetJSONL(w io.Writer, run string) error {
	return writeSeriesJSONL(w, run, sp.facets)
}
