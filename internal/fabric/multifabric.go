package fabric

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// MultiFabric attaches one set of terminals to N network planes — the
// dual-rail reality of TSUBAME2, where every compute node kept an HCA
// port on the Fat-Tree plane while the second rail was rebuilt into the
// 12x8 HyperX. Each plane is a complete Fabric (graph + tables + flow
// network) and all planes share one event engine, so cross-plane timing
// is globally ordered. Every Send is routed through a SelectionPolicy
// that picks the plane.
//
// Terminals are addressed by the NodeIDs of plane 0 (the primary plane);
// the i-th terminal of every plane is the same physical node, so IDs are
// translated between planes by terminal index.
type MultiFabric struct {
	Eng *sim.Engine

	policy  SelectionPolicy
	planes  []*Fabric
	names   []string
	healthy []bool
	// terms[p] is plane p's terminal list indexed by terminal index —
	// the cross-plane NodeID translation table.
	terms [][]topo.NodeID

	// Messages counts logical sends submitted to the machine and Bytes
	// their payload; Delivered/DeliveredBytes count completions on
	// whichever plane ended up carrying each message. Zero loss means
	// Delivered == Messages once the engine drains.
	Messages       uint64
	Bytes          float64
	Delivered      uint64
	DeliveredBytes float64
	// PlaneMessages[p] counts messages handed to plane p, redispatched
	// arrivals included.
	PlaneMessages []uint64
	// Redispatches counts messages migrated to a sibling plane after the
	// plane first chosen for them could no longer route them.
	Redispatches uint64
}

// NewMulti builds a multi-plane fabric over per-plane Fabrics that share
// one engine and attach the same number of terminals. names labels the
// planes for telemetry and reports (nil or short derives "plane<i>").
// policy nil defaults to SinglePlane on plane 0; SizeSplit planes and
// Failover orders left unset are resolved here against the actual plane
// list.
func NewMulti(planes []*Fabric, names []string, policy SelectionPolicy) (*MultiFabric, error) {
	if len(planes) == 0 {
		return nil, fmt.Errorf("fabric: MultiFabric needs at least one plane")
	}
	mf := &MultiFabric{
		Eng:           planes[0].Eng,
		planes:        planes,
		healthy:       make([]bool, len(planes)),
		PlaneMessages: make([]uint64, len(planes)),
	}
	nt := planes[0].Tables.NumTerminals()
	for p, f := range planes {
		if f.Eng != mf.Eng {
			return nil, fmt.Errorf("fabric: plane %d runs on a different engine", p)
		}
		if got := f.Tables.NumTerminals(); got != nt {
			return nil, fmt.Errorf("fabric: plane %d attaches %d terminals, plane 0 attaches %d — planes must serve the same nodes", p, got, nt)
		}
		mf.healthy[p] = true
		mf.terms = append(mf.terms, f.G.Terminals())
		name := fmt.Sprintf("plane%d", p)
		if p < len(names) && names[p] != "" {
			name = names[p]
		}
		mf.names = append(mf.names, name)
	}
	if policy == nil {
		policy = SinglePlane{}
	}
	switch pol := policy.(type) {
	case *SizeSplit:
		pol.resolve(planes)
	case *Failover:
		if len(pol.Order) == 0 {
			pol.Order = failoverOrder(0, len(planes))
		}
		for _, p := range pol.Order {
			if p < 0 || p >= len(planes) {
				return nil, fmt.Errorf("fabric: failover order references plane %d of %d", p, len(planes))
			}
		}
	}
	mf.policy = policy
	return mf, nil
}

// Engine returns the shared discrete-event engine (Messenger).
func (mf *MultiFabric) Engine() *sim.Engine { return mf.Eng }

// NumPlanes returns the number of attached planes.
func (mf *MultiFabric) NumPlanes() int { return len(mf.planes) }

// Plane returns the fabric of plane p.
func (mf *MultiFabric) Plane(p int) *Fabric { return mf.planes[p] }

// PlaneName returns plane p's display label.
func (mf *MultiFabric) PlaneName(p int) string { return mf.names[p] }

// PolicyName returns the name of the active selection policy.
func (mf *MultiFabric) PolicyName() string { return mf.policy.Name() }

// SetPlaneHealth marks plane p healthy or unhealthy. Health is advisory
// state consumed by policies such as Failover — typically wired to
// faults.Manager.OnHealth so a plane whose subnet manager is mid-re-sweep
// is skipped until its rebuilt tables are swapped in.
func (mf *MultiFabric) SetPlaneHealth(p int, healthy bool) { mf.healthy[p] = healthy }

// PlaneHealthy reports plane p's advisory health (planes start healthy).
func (mf *MultiFabric) PlaneHealthy(p int) bool { return mf.healthy[p] }

// termIndex resolves a primary-plane terminal ID to its machine-wide
// terminal index.
func (mf *MultiFabric) termIndex(n topo.NodeID) int {
	return mf.planes[0].Tables.TermIndex(n)
}

// planeNode translates a primary-plane terminal ID to the same physical
// node's ID on plane p.
func (mf *MultiFabric) planeNode(p int, n topo.NodeID) topo.NodeID {
	if p == 0 {
		return n
	}
	return mf.terms[p][mf.termIndex(n)]
}

// CanRoute reports whether plane p can currently route a message between
// two primary-plane terminals.
func (mf *MultiFabric) CanRoute(p int, src, dst topo.NodeID, size int64) bool {
	return mf.planes[p].CanRoute(mf.planeNode(p, src), mf.planeNode(p, dst), size)
}

// Send routes one message through the selection policy onto a plane
// (Messenger). src and dst are primary-plane terminal IDs.
func (mf *MultiFabric) Send(src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) {
	mf.Messages++
	mf.Bytes += float64(size)
	done := func(at sim.Time) {
		mf.Delivered++
		mf.DeliveredBytes += float64(size)
		if onDelivered != nil {
			onDelivered(at)
		}
	}
	p := mf.policy.SelectPlane(mf, src, dst, size)
	if p < 0 || p >= len(mf.planes) {
		panic(fmt.Sprintf("fabric: policy %s selected plane %d of %d", mf.policy.Name(), p, len(mf.planes)))
	}
	mf.sendOn(p, src, dst, size, done)
}

// sendOn hands a message to plane p, translating the primary-plane IDs.
func (mf *MultiFabric) sendOn(p int, src, dst topo.NodeID, size int64, done func(at sim.Time)) {
	mf.PlaneMessages[p]++
	mf.planes[p].Send(mf.planeNode(p, src), mf.planeNode(p, dst), size, done)
}

// EnableResilience arms every plane's bounded-retry layer and wires the
// cross-plane redispatch hook: a message whose plane can no longer route
// it migrates to a sibling plane that can (counted in Redispatches)
// instead of burning retries against dead tables. Per-plane retry and
// backoff still apply when no sibling can take the message — e.g. while
// every plane's SM is mid-sweep. Call this before handing planes to
// faults.NewManager so the manager reuses this configuration.
func (mf *MultiFabric) EnableResilience(r Resilience) {
	for p, f := range mf.planes {
		rp := r
		from := p
		rp.Redispatch = func(src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) bool {
			return mf.redispatch(from, src, dst, size, onDelivered)
		}
		f.EnableResilience(rp)
	}
}

// redispatch moves a failed message from plane `from` onto the first
// sibling plane that can route it, preferring healthy planes. Returns
// false when no sibling is reachable, leaving the message to its own
// plane's retry loop.
func (mf *MultiFabric) redispatch(from int, src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) bool {
	si := mf.planes[from].Tables.TermIndex(src)
	di := mf.planes[from].Tables.TermIndex(dst)
	psrc, pdst := mf.terms[0][si], mf.terms[0][di]
	pick := -1
	for q := range mf.planes {
		if q == from || !mf.CanRoute(q, psrc, pdst, size) {
			continue
		}
		if mf.healthy[q] {
			pick = q
			break
		}
		if pick < 0 {
			pick = q
		}
	}
	if pick < 0 {
		return false
	}
	mf.Redispatches++
	mf.sendOn(pick, psrc, pdst, size, onDelivered)
	return true
}

// AttachTelemetry wires one collector per plane (tm.Planes parallel to
// the plane list), each sampling the engine the planes share; nil
// detaches all planes.
func (mf *MultiFabric) AttachTelemetry(tm *telemetry.Multi) error {
	if tm == nil {
		for _, f := range mf.planes {
			f.AttachTelemetry(nil)
		}
		return nil
	}
	if len(tm.Planes) != len(mf.planes) {
		return fmt.Errorf("fabric: telemetry has %d plane collectors, fabric has %d planes", len(tm.Planes), len(mf.planes))
	}
	for p, f := range mf.planes {
		f.AttachTelemetry(tm.Planes[p])
	}
	tm.AttachEngine(mf.Eng)
	return nil
}
