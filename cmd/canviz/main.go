// Command canviz builds a CAN overlay from the synthetic node
// population and prints its structure: dimension layout, zone volume
// and neighbor-count distributions, a sample routing trace, and the
// take-over relationships that the compact heartbeat scheme relies on.
// Useful for getting a feel for the DHT before reading simulation
// results.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
	"hetgrid/internal/stats"
	"hetgrid/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 200, "population")
	gpuslots := flag.Int("gpuslots", 2, "accelerator slots")
	seed := flag.Int64("seed", 1, "random seed")
	plot := flag.String("plot", "", "render an ASCII slice of the zone partition over two dimensions, e.g. \"0,10\" (cpu.clock × virtual)")
	flag.Parse()

	space := resource.NewSpace(*gpuslots)
	ov := can.NewOverlay(space.Dims())
	eng := sim.New()
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	gen := workload.NewNodeGen(space, rng.Split(*seed, "nodes"))
	redraw := rng.NewSplit(*seed, "redraw")
	for i := 0; i < *nodes; i++ {
		caps := gen.One()
		n, err := ov.Join(space.NodePoint(caps), caps)
		for err != nil {
			caps.Virtual = redraw.Float64() * 0.999999
			n, err = ov.Join(space.NodePoint(caps), caps)
		}
		cl.AddNode(n.ID, caps)
	}

	fmt.Printf("CAN: %d nodes, %d dimensions\n", ov.Len(), ov.Dims())
	fmt.Println("\ndimension layout:")
	for i := 0; i < space.Dims(); i++ {
		fmt.Printf("  dim %2d: %s\n", i, space.DimName(i))
	}

	st := ov.Stats()
	fmt.Printf("\nneighbors: avg %.1f, max %d\n", st.AvgNeighbors, st.MaxNeighbors)

	var counts []int
	for _, n := range ov.Nodes() {
		counts = append(counts, len(ov.NeighborIDs(n.ID)))
	}
	sort.Ints(counts)
	hist := map[int]int{}
	for _, c := range counts {
		hist[c/5*5]++
	}
	var buckets []int
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	tab := stats.NewTable("neighbors", "nodes")
	for _, b := range buckets {
		tab.AddRow(fmt.Sprintf("%d-%d", b, b+4), hist[b])
	}
	fmt.Println("\nneighbor-count histogram:")
	tab.Fprint(os.Stdout)

	// Routing demo: from the first node to a demanding job coordinate.
	first := ov.Nodes()[0]
	req := resource.JobReq{CE: []resource.CEReq{
		{Type: resource.TypeCPU, Clock: 2.2, Cores: 4, Memory: 4},
	}}
	target := space.JobPoint(req, 0.5)
	path, err := ov.Route(first.ID, target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "route:", err)
		os.Exit(1)
	}
	fmt.Printf("\nrouting a 4-core 2.2x-clock job from node %d: %d hops\n", first.ID, len(path)-1)
	for i, hop := range path {
		marker := "   "
		if i == len(path)-1 {
			marker = "-> "
		}
		fmt.Printf("  %s node %-4d caps: %v\n", marker, hop.ID, hop.Caps)
	}

	// Take-over sample.
	fmt.Println("\ntake-over plan sample (first 10 nodes):")
	for i, n := range ov.Nodes() {
		if i >= 10 {
			break
		}
		if plan, ok := ov.Takeover(n.ID); ok {
			if plan.Merged != nil {
				fmt.Printf("  node %-4d -> taker %-4d (pair partner %d merges first)\n", n.ID, plan.Taker.ID, plan.Merged.ID)
			} else {
				fmt.Printf("  node %-4d -> taker %-4d (direct sibling)\n", n.ID, plan.Taker.ID)
			}
		}
	}
	if err := ov.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "overlay invariant violation:", err)
		os.Exit(1)
	}
	fmt.Println("\noverlay invariants: OK")

	if *plot != "" {
		var dx, dy int
		if _, err := fmt.Sscanf(*plot, "%d,%d", &dx, &dy); err != nil ||
			dx < 0 || dy < 0 || dx >= space.Dims() || dy >= space.Dims() || dx == dy {
			fmt.Fprintf(os.Stderr, "canviz: -plot wants two distinct dims in 0..%d\n", space.Dims()-1)
			os.Exit(1)
		}
		fmt.Printf("\nzone slice over %s (x) × %s (y), other coordinates at 0.5:\n\n",
			space.DimName(dx), space.DimName(dy))
		plotSlice(ov, space.Dims(), dx, dy)
	}
}

// plotSlice renders the zone partition restricted to a 2-D slice: each
// character cell shows which node owns the slice point at its center,
// cycling through a letter alphabet per owner.
func plotSlice(ov *can.Overlay, dims, dx, dy int) {
	const w, h = 72, 24
	glyphs := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	owners := map[can.NodeID]byte{}
	next := 0
	probe := make(geom.Point, dims)
	for i := range probe {
		probe[i] = 0.5
	}
	for row := h - 1; row >= 0; row-- {
		line := make([]byte, w)
		for col := 0; col < w; col++ {
			probe[dx] = (float64(col) + 0.5) / w
			probe[dy] = (float64(row) + 0.5) / h
			owner := ov.Owner(probe)
			g, ok := owners[owner.ID]
			if !ok {
				g = glyphs[next%len(glyphs)]
				owners[owner.ID] = g
				next++
			}
			line[col] = g
		}
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("\n%d distinct zones intersect this slice\n", len(owners))
}
