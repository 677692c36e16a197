package figures

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// planesSmallMsg is the latency-bound payload of the planes figure; it
// sits well under the sizesplit default, so the policy steers it onto the
// low-diameter HyperX rail.
const planesSmallMsg = 512

// PlaneShares is the planes figure's measurement: how each machine's
// traffic split over its planes at each message size.
type PlaneShares struct {
	Nodes int
	Rows  []PlaneShare
}

// PlaneShare is one plane's part of one run; a single-plane machine has
// one row with an empty Plane.
type PlaneShare struct {
	Machine string
	Size    int64
	// Score is the run's us/op.
	Score float64
	Plane string
	Msgs  uint64
	// XmitBytes is the plane's XmitData, Share its fraction of the
	// machine's.
	XmitBytes, Share float64
}

// FigPlanes compares the counters figure's grouped shift-incast run on
// each rail alone against the dual-plane TSUBAME2 machine, at a
// latency-bound and a bandwidth-bound message size. The dual-plane rows
// carry the figure's point: the sizesplit policy routes the 512 B incast
// almost entirely over the diameter-2 HyperX plane while the 1 MiB incast
// rides the full-bisection Fat-Tree, so each rail's XmitData share flips
// between the two sizes.
func (s *Session) FigPlanes() (*PlaneShares, error) {
	ps := &PlaneShares{Nodes: s.incastNodes()}
	combos := exp.PaperCombos()
	for _, c := range []exp.Combo{combos[0], combos[4], exp.DualPlaneCombo()} {
		for _, size := range []int64{planesSmallMsg, countersMsgSize} {
			score, msgr, cols, err := s.countersRun(c, ps.Nodes, func(nn int) (*workloads.Instance, error) {
				return workloads.BuildGroupedIncast(nn, countersGroup, size)
			})
			if err != nil {
				return nil, err
			}
			var total float64
			for _, cl := range cols {
				total += cl.Chans.TotalXmitData()
			}
			for p, cl := range cols {
				row := PlaneShare{Machine: c.Name, Size: size, Score: score, XmitBytes: cl.Chans.TotalXmitData(), Share: 1}
				if mf, ok := msgr.(*fabric.MultiFabric); ok {
					row.Plane, row.Msgs, row.Share = cl.PlaneName, mf.PlaneMessages[p], 0
					if total > 0 {
						row.Share = row.XmitBytes / total
					}
				} else {
					row.Msgs = msgr.(*fabric.Fabric).Messages
				}
				ps.Rows = append(ps.Rows, row)
			}
		}
	}
	return ps, nil
}

// Render prints one table block per machine and writes the rows to
// csvDir when set.
func (ps *PlaneShares) Render(w io.Writer, csvDir string) error {
	header(w, fmt.Sprintf("Planes: single- vs dual-plane shift-incast (group %d), %d nodes", countersGroup, ps.Nodes))
	var rows [][]string
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tsize\tus/op\tplane\tmsgs\txmit MiB\tshare")
	for i, r := range ps.Rows {
		plane, csvPlane := r.Plane, r.Plane
		if plane == "" {
			plane, csvPlane = "(single)", "single"
		}
		const mib = 1 << 20
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%s\t%d\t%.2f\t%.1f%%\n",
			r.Machine, r.Size, r.Score, plane, r.Msgs, r.XmitBytes/mib, 100*r.Share)
		rows = append(rows, []string{r.Machine, strconv.FormatInt(r.Size, 10), ftoa(r.Score), csvPlane,
			strconv.FormatUint(r.Msgs, 10), ftoa(r.XmitBytes), ftoa(r.Share)})
		// Each machine's block is aligned on its own, the header with the
		// first.
		if i+1 == len(ps.Rows) || ps.Rows[i+1].Machine != r.Machine {
			tw.Flush()
		}
	}
	return writeCSV(csvDir, "planes", []string{"machine", "size", "score", "plane", "msgs", "xmit_bytes", "share"}, rows)
}
