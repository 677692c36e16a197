package route_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// star is one switch with n terminals.
func star(n int) *topo.Graph {
	g := topo.New("star")
	sw := g.AddNode(topo.Switch, "s").ID
	for i := 0; i < n; i++ {
		g.Connect(sw, g.AddNode(topo.Terminal, fmt.Sprintf("t%d", i)).ID, 1e9, 1e-7)
	}
	return g
}

// At LMC l, 65536>>l - 1 aligned, non-zero blocks of 2^l LIDs fit in the
// 16-bit LID space. One terminal more is refused with ErrLIDSpace instead
// of wrapping the base LID to 0.
func TestNewTablesLIDSpace(t *testing.T) {
	for _, lmc := range []uint8{0, 2} {
		most := 65536>>lmc - 1
		tb, err := route.NewTables(star(most), "x", lmc, nil)
		if err != nil {
			t.Fatalf("lmc %d, %d terminals: %v", lmc, most, err)
		}
		if tb.MaxLID() != 65535 {
			t.Errorf("lmc %d, %d terminals: MaxLID %d, want 65535", lmc, most, tb.MaxLID())
		}
		if _, err := route.NewTables(star(most+1), "x", lmc, nil); !errors.Is(err, route.ErrLIDSpace) {
			t.Errorf("lmc %d, %d terminals: %v, want ErrLIDSpace", lmc, most+1, err)
		}
	}
}

// Engines return the LID-space error rather than panicking on a wrapped
// base LID.
func TestEnginesRejectLIDSpaceOverflow(t *testing.T) {
	lattice := func(terms int) *topo.HyperX {
		return topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: terms, Bandwidth: 1e9, Latency: 1e-7})
	}
	if _, err := route.HXMin(lattice(16384), 0); !errors.Is(err, route.ErrLIDSpace) {
		t.Errorf("hxmin on 2x2 T=16384 at LMC 0: %v, want ErrLIDSpace", err)
	}
	if _, err := route.DFSSSP(lattice(4096).Graph, 2, 8); !errors.Is(err, route.ErrLIDSpace) {
		t.Errorf("dfsssp on 2x2 T=4096 at LMC 2: %v, want ErrLIDSpace", err)
	}
}
