package topo

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/sim"
)

// XGFTConfig describes an eXtended Generalized Fat-Tree XGFT(h; m1..mh;
// w1..wh) after Öhring et al.: a tree of height h where each level-i node
// has M[i-1] children and W[i] parents (terminals are level 0, switches
// levels 1..h). A k-ary n-tree (Petrini/Vanneschi) is XGFT(n; k..k; 1,k..k).
type XGFTConfig struct {
	// M[i] is the child count of level-(i+1) nodes; M[0] is terminals per
	// leaf switch.
	M []int
	// W[i] is the parent count of level-i nodes; W[0] applies to terminals
	// and is almost always 1.
	W []int
	// Bandwidth is per-direction link bandwidth in bytes/second (all
	// levels).
	Bandwidth float64
	// Latency is the one-way wire latency per link.
	Latency sim.Duration
}

// FatTree is a built XGFT with the coordinate bookkeeping the ftree routing
// engine needs.
type FatTree struct {
	*Graph
	Cfg XGFTConfig

	// Height is the number of switch levels.
	Height int
	// level[n] is 0 for terminals and 1..h for switches.
	level []int
	// xcoord[n] for a level-i node holds (x_{i+1}, ..., x_h): the digits
	// that identify which subtree the node roots. ycoord[n] holds
	// (y_1, ..., y_i): which "plane" of redundant switches it sits in.
	xcoord [][]int
	ycoord [][]int
	// upPorts[n][y] is the link from node n to its parent with y_{i+1}=y.
	upPorts [][]*Link
	// downPorts[n][x] is the link from node n to its child with x_i=x.
	downPorts [][]*Link
	// termIndex[t] is the linear index of terminal t (mixed-radix over M).
	termIndex map[NodeID]int
}

// NewXGFT builds an XGFT, panicking on an invalid configuration. It is the
// constructor for hard-coded shapes (the paper planes, tests);
// user-supplied shapes should go through BuildXGFT, which returns the
// validation problem as an error instead.
func NewXGFT(cfg XGFTConfig) *FatTree {
	ft, err := BuildXGFT(cfg)
	if err != nil {
		panic(err)
	}
	return ft
}

// BuildXGFT validates cfg and builds an XGFT. Terminals are created in
// linear-index order so that "linear" rank placement matches consecutive
// leaf switches.
func BuildXGFT(cfg XGFTConfig) (*FatTree, error) {
	h := len(cfg.M)
	if h == 0 || len(cfg.W) != h {
		return nil, fmt.Errorf("topo: XGFT needs len(M) == len(W) >= 1, got M=%v W=%v", cfg.M, cfg.W)
	}
	if cfg.W[0] != 1 {
		return nil, fmt.Errorf("topo: XGFT with W[0] != 1 (multi-homed terminals) is not supported, got W=%v", cfg.W)
	}
	for i, m := range cfg.M {
		if m < 1 {
			return nil, fmt.Errorf("topo: XGFT child counts must be >= 1, got M=%v", cfg.M)
		}
		if cfg.W[i] < 1 {
			return nil, fmt.Errorf("topo: XGFT parent counts must be >= 1, got W=%v", cfg.W)
		}
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("topo: XGFT needs positive link bandwidth, got %g", cfg.Bandwidth)
	}

	ft := &FatTree{
		Graph:     New(fmt.Sprintf("xgft-h%d", h)),
		Cfg:       cfg,
		Height:    h,
		termIndex: make(map[NodeID]int),
	}

	// Enumerate nodes level by level. A level-i node is identified by
	// (x_{i+1..h}, y_{1..i}).
	ids := make([]map[string]NodeID, h+1)
	for i := range ids {
		ids[i] = make(map[string]NodeID)
	}
	key := func(xs, ys []int) string { return fmt.Sprint(xs, ys) }

	// Terminals (level 0): all (x_1..x_h).
	xs := make([]int, h)
	var enumerate func(level int, makeNode func(xs, ys []int))
	enumerate = func(level int, makeNode func(xs, ys []int)) {
		// x digits run over M[level..h-1], y digits over W[0..level-1].
		nx := h - level
		ny := level
		xdig := make([]int, nx)
		ydig := make([]int, ny)
		var recX func(i int)
		var recY func(i int)
		recY = func(i int) {
			if i == ny {
				makeNode(append([]int{}, xdig...), append([]int{}, ydig...))
				return
			}
			for v := 0; v < cfg.W[i]; v++ {
				ydig[i] = v
				recY(i + 1)
			}
		}
		recX = func(i int) {
			if i == nx {
				recY(0)
				return
			}
			for v := 0; v < cfg.M[level+i]; v++ {
				xdig[i] = v
				recX(i + 1)
			}
		}
		recX(0)
	}
	_ = xs

	for level := 0; level <= h; level++ {
		lv := level
		enumerate(lv, func(xds, yds []int) {
			kind := Switch
			label := fmt.Sprintf("L%d%v%v", lv, xds, yds)
			if lv == 0 {
				kind = Terminal
				label = fmt.Sprintf("t%v", xds)
			}
			n := ft.AddNode(kind, label)
			ft.level = append(ft.level, lv)
			ft.xcoord = append(ft.xcoord, xds)
			ft.ycoord = append(ft.ycoord, yds)
			ids[lv][key(xds, yds)] = n.ID
			if lv == 0 {
				// Linear index: mixed radix, x_1 least significant.
				idx := 0
				for i := h - 1; i >= 0; i-- {
					idx = idx*cfg.M[i] + xds[i]
				}
				ft.termIndex[n.ID] = idx
			}
		})
	}
	ft.upPorts = make([][]*Link, len(ft.Nodes))
	ft.downPorts = make([][]*Link, len(ft.Nodes))

	// Links: level-i node (x_{i+1..h}; y_{1..i}) connects to level-(i+1)
	// node (x_{i+2..h}; y_{1..i+1}) for every y_{i+1} in [0, W[i]).
	for lv := 0; lv < h; lv++ {
		for _, nid := range ft.nodesAtLevel(lv) {
			xds, yds := ft.xcoord[nid], ft.ycoord[nid]
			ft.upPorts[nid] = make([]*Link, cfg.W[lv])
			for y := 0; y < cfg.W[lv]; y++ {
				pxs := xds[1:]
				pys := append(append([]int{}, yds...), y)
				pid, ok := ids[lv+1][key(pxs, pys)]
				if !ok {
					panic(fmt.Sprintf("topo: XGFT parent %v %v missing at level %d", pxs, pys, lv+1))
				}
				l := ft.Connect(nid, pid, cfg.Bandwidth, cfg.Latency)
				ft.upPorts[nid][y] = l
				if ft.downPorts[pid] == nil {
					ft.downPorts[pid] = make([]*Link, cfg.M[lv])
				}
				ft.downPorts[pid][xds[0]] = l
			}
		}
	}
	return ft, nil
}

func (ft *FatTree) nodesAtLevel(lv int) []NodeID {
	var out []NodeID
	for id, l := range ft.level {
		if l == lv {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// NewKaryNTree builds a k-ary n-tree (Petrini & Vanneschi), e.g. the 4-ary
// 2-tree of the paper's Fig. 2a, as XGFT(n; k..k; 1,k..k).
func NewKaryNTree(k, n int, bandwidth float64, latency sim.Duration) *FatTree {
	m := make([]int, n)
	w := make([]int, n)
	for i := range m {
		m[i] = k
		w[i] = k
	}
	w[0] = 1
	ft := NewXGFT(XGFTConfig{M: m, W: w, Bandwidth: bandwidth, Latency: latency})
	ft.Name = fmt.Sprintf("%d-ary-%d-tree", k, n)
	return ft
}

// Level reports a node's tree level: 0 for terminals, 1..h for switches.
func (ft *FatTree) Level(n NodeID) int { return ft.level[n] }

// TermIndex returns the linear index of a terminal.
func (ft *FatTree) TermIndex(t NodeID) int { return ft.termIndex[t] }

// UpLink returns the link from n to its parent number y, or nil when y is
// out of range. The link may be Down.
func (ft *FatTree) UpLink(n NodeID, y int) *Link {
	ups := ft.upPorts[n]
	if y < 0 || y >= len(ups) {
		return nil
	}
	return ups[y]
}

// DownLink returns the link from switch n to its child with x-digit x, or
// nil. The link may be Down.
func (ft *FatTree) DownLink(n NodeID, x int) *Link {
	downs := ft.downPorts[n]
	if x < 0 || x >= len(downs) {
		return nil
	}
	return downs[x]
}

// Ancestors reports whether switch s (level i) is an ancestor of terminal t:
// the x-suffixes beyond level i must match.
func (ft *FatTree) Ancestors(s NodeID, t NodeID) bool {
	lv := ft.level[s]
	sx := ft.xcoord[s] // (x_{lv+1..h})
	tx := ft.xcoord[t] // (x_1..h)
	for i := range sx {
		if sx[i] != tx[lv+i] {
			return false
		}
	}
	return true
}

// DownDigit returns the child x-digit a packet at level-i switch s must take
// to descend toward terminal t. Callers must ensure Ancestors(s, t).
func (ft *FatTree) DownDigit(s NodeID, t NodeID) int {
	lv := ft.level[s]
	return ft.xcoord[t][lv-1]
}
