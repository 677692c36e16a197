package fabric

import (
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Probe returns the switch-hop count and the destination LID the active
// PML would use for a message between two terminals of the given size. A
// path's channels include injection and delivery.
func (f *Fabric) Probe(src, dst topo.NodeID, size int64) (hops int, lid route.LID, err error) {
	lid = f.selectLID(src, dst, size)
	p, err := f.pathTo(src, lid)
	if err != nil {
		return 0, lid, err
	}
	return len(p) - 2, lid, nil
}
