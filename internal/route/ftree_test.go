package route_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// ftreeDiff builds FTree and refFTree on ft at lmc and names the first LFT
// entry or certificate rank where they differ, or returns "".
func ftreeDiff(ft *topo.FatTree, lmc uint8) (string, error) {
	got, err := route.FTree(ft, lmc)
	if err != nil {
		return "", err
	}
	want, err := route.RefFTree(ft, lmc)
	if err != nil {
		return "", err
	}
	for _, sw := range ft.Switches() {
		for lid := route.LID(0); lid <= got.MaxLID(); lid++ {
			if c, w := got.NextHop(sw, lid), want.NextHop(sw, lid); c != w {
				return fmt.Sprintf("switch %s LID %d: channel %d, reference %d", ft.Nodes[sw].Label, lid, c, w), nil
			}
		}
	}
	g, w := got.LaneRanks(), want.LaneRanks()
	if len(g) != 1 || len(w) != 1 || !slices.Equal(g[0], w[0]) {
		return "lane certificate differs", nil
	}
	return "", nil
}

// FTree computes each leaf's descent and costs once and gives each
// terminal the first minimal-cost parent at or after its D-Mod-K digit.
// Every LFT entry and the certificate must equal the per-terminal scan's,
// on healthy and degraded trees, at LMC 0 and 2, with a leaf cut off from
// every parent and with a detached terminal.
func TestFTreeMatchesReference(t *testing.T) {
	type tree struct {
		name string
		ft   *topo.FatTree
	}
	var trees []tree
	degraded := func(name string, ft *topo.FatTree, n int, seed uint64) {
		if _, err := topo.DegradeSwitchLinks(ft.Graph, n, seed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trees = append(trees, tree{name, ft})
	}
	for _, c := range []struct{ k, n, fail int }{{4, 2, 0}, {4, 2, 5}, {4, 3, 0}, {4, 3, 20}, {6, 3, 60}} {
		degraded(fmt.Sprintf("%d-ary %d-tree, %d down", c.k, c.n, c.fail), topo.NewKaryNTree(c.k, c.n, 1e9, 1e-7), c.fail, 7)
	}
	cutLeaf := topo.NewKaryNTree(4, 3, 1e9, 1e-7)
	for _, l := range cutLeaf.Nodes[cutLeaf.Switches()[5]].Ports {
		if l != nil && cutLeaf.Level(l.Other(cutLeaf.Switches()[5])) == 2 {
			l.Down = true
		}
	}
	trees = append(trees, tree{"leaf without parents", cutLeaf})
	detached := topo.NewKaryNTree(4, 3, 1e9, 1e-7)
	detached.Nodes[detached.Terminals()[9]].Ports[0].Down = true
	degraded("detached terminal", detached, 10, 3)
	if !testing.Short() && !raceEnabled {
		for _, seed := range []uint64{1, 3, 11} {
			for _, extra := range []int{0, 66, 197, 400} {
				degraded(fmt.Sprintf("paper seed %d +%d down", seed, extra), topo.NewPaperFatTree(true, seed), extra, seed+100)
			}
		}
	}
	for _, tr := range trees {
		for _, lmc := range []uint8{0, 2} {
			d, err := ftreeDiff(tr.ft, lmc)
			if err != nil {
				t.Fatalf("%s LMC %d: %v", tr.name, lmc, err)
			}
			if d != "" {
				t.Errorf("%s LMC %d: %s", tr.name, lmc, d)
			}
		}
	}
}

// fuzzFTreeShapes are FuzzFTree's XGFTs: two k-ary n-trees, two trees
// with uneven parent counts, and one whose 70 parents per leaf take two
// words of parent bitset, with a D-Mod-K digit in either.
var fuzzFTreeShapes = []topo.XGFTConfig{
	{M: []int{4, 4}, W: []int{1, 4}},
	{M: []int{2, 2, 2}, W: []int{1, 2, 2}},
	{M: []int{2, 4, 4}, W: []int{1, 3, 2}},
	{M: []int{3, 2, 2}, W: []int{1, 5, 3}},
	{M: []int{35, 2}, W: []int{1, 70}},
}

// FuzzFTree checks FTree against refFTree on small XGFTs with links down.
// The first byte picks the shape (mod 5) and the LMC (the byte / 5, mod 3);
// each following byte takes link b*3 (mod the link count) down, a switch
// or a terminal link.
//
// The committed corpus (testdata/fuzz/FuzzFTree) holds each shape healthy
// and degraded, which go test runs as ordinary tests; make fuzz explores
// further.
func FuzzFTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzFTreeShapes[int(data[0])%len(fuzzFTreeShapes)]
		cfg.Bandwidth, cfg.Latency = 1e9, 1e-7
		lmc := uint8(int(data[0]) / len(fuzzFTreeShapes) % 3)
		ft, err := topo.BuildXGFT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data[1:min(len(data), 33)] {
			ft.Links[int(b)*3%len(ft.Links)].Down = true
		}
		d, err := ftreeDiff(ft, lmc)
		if err != nil {
			t.Fatal(err)
		}
		if d != "" {
			t.Fatalf("shape %v LMC %d: %s", cfg, lmc, d)
		}
	})
}
