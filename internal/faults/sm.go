package faults

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// DefaultDetectionDelay models IB trap propagation plus the SM noticing the
// port state change. Real OpenSM reacts within milliseconds of a trap.
const DefaultDetectionDelay sim.Duration = 1 * sim.Millisecond

// DefaultSweepLatency models recomputing the LFTs and programming every
// switch — the window during which the fabric still runs on stale tables.
const DefaultSweepLatency sim.Duration = 4 * sim.Millisecond

// SMConfig tunes the subnet-manager model.
type SMConfig struct {
	// DetectionDelay is the gap between a fabric change and the SM starting
	// its re-sweep. Zero selects DefaultDetectionDelay.
	DetectionDelay sim.Duration
	// SweepLatency is the gap between sweep start and the recomputed tables
	// going live in the fabric. Zero selects DefaultSweepLatency.
	SweepLatency sim.Duration
	// Rebuild recomputes routing tables with the active engine against the
	// graph's current link state. Required. The new tables must keep the
	// fabric's LID layout (same terminals, same LMC, same base LIDs).
	Rebuild func() (*route.Tables, error)
	// Revalidate checks the rebuilt tables before the swap (reachability
	// accounting, loop-freedom, per-VL deadlock-freedom). Deadlock-prone
	// tables are rejected and the old ones kept — the invariant an SM must
	// never break. Costs one LFT entry resolution per (switch, destination
	// LID) and one SL lookup per terminal pair each sweep (route.Validate).
	// Tables carrying a lane certificate (the lane-pass engines and ftree)
	// are proven deadlock-free by one lane-rise mask per resolved entry;
	// others, and tables whose paths break their certificate, also offer
	// each resolved entry's channel dependency once to the per-lane channel
	// dependency graphs of the lanes that use it.
	Revalidate bool
}

// Sweep records one SM reaction to fabric changes.
type Sweep struct {
	// Trigger is the earliest fabric change this sweep covers — the start
	// of the outage window it closes.
	Trigger sim.Time
	// Detected is when the SM started the sweep.
	Detected sim.Time
	// Swapped is when the rebuilt tables went live; zero if the sweep was
	// rejected.
	Swapped sim.Time
	// Events is the number of fabric changes covered (coalescing: changes
	// arriving within one detection window share a sweep).
	Events int
	// Rejected carries the rebuild or validation failure that kept the old
	// tables; nil for a successful sweep.
	Rejected error
	// Validated is true when Revalidate ran; DeadlockFree and Unreachable
	// are only meaningful then.
	Validated    bool
	DeadlockFree bool
	// Unreachable counts (src, dst-LID) pairs the rebuilt tables cannot
	// serve — nonzero when dead switches strand terminals.
	Unreachable int
	// Margin is always 0: the SM does not measure the rebuilt tables'
	// deadlock-freedom margin (route.DeadlockMargin). The hxbench
	// fault_resweep digest still hashes the field.
	Margin float64
}

// Latency is the outage window the sweep closed: first covered change to
// table swap. Zero for rejected sweeps.
func (s Sweep) Latency() sim.Duration {
	if s.Swapped == 0 && s.Rejected != nil {
		return 0
	}
	return s.Swapped - s.Trigger
}

// Manager is the subnet-manager model: it owns the runtime link state of
// one fabric, applies scheduled fault events to it, tears down in-flight
// traffic crossing dead channels, and re-sweeps routing tables.
type Manager struct {
	Cfg SMConfig

	// Sweeps records every sweep in completion order.
	Sweeps []Sweep
	// Injected counts fault events that changed the fabric; TornDown the
	// in-flight flows those changes killed.
	Injected int
	TornDown int

	// OnApply observes each applied event (metrics sampling); OnSwept each
	// completed sweep.
	OnApply func(ev Event)
	OnSwept func(s Sweep)
	// OnHealth observes the plane's health transitions: false when a
	// destructive change degrades the fabric, true once a successful sweep
	// has covered every change applied so far. Multi-plane failover wires
	// this to fabric.MultiFabric.SetPlaneHealth so a plane whose SM is
	// mid-re-sweep is skipped by plane selection.
	OnHealth func(healthy bool)

	f   *fabric.Fabric
	eng *sim.Engine
	g   *topo.Graph

	rev      int  // fabric-change revision counter
	sweptRev int  // highest revision live in the fabric's tables
	sweeping bool // a sweep is between Detected and Swapped
	// changeTimes[i] is when change i+1 was applied; a sweep covering
	// (sweptRev, startRev] starts its outage window at
	// changeTimes[sweptRev].
	changeTimes []sim.Time
	// downCount refcounts failure causes per link (overlapping schedules
	// can fail a link twice); managed marks links whose Down flag this
	// manager owns, so static build-time degradation is never "repaired"
	// by a LinkUp.
	downCount map[topo.LinkID]int
	managed   map[topo.LinkID]bool
}

// NewManager wires a subnet manager to a fabric. It enables the fabric's
// resilience layer with defaults when the caller has not configured one, so
// in-flight messages crossing a dead channel are retried rather than
// panicking the simulation.
func NewManager(f *fabric.Fabric, cfg SMConfig) (*Manager, error) {
	if cfg.Rebuild == nil {
		return nil, fmt.Errorf("faults: SMConfig.Rebuild is required")
	}
	if cfg.DetectionDelay == 0 {
		cfg.DetectionDelay = DefaultDetectionDelay
	}
	if cfg.SweepLatency == 0 {
		cfg.SweepLatency = DefaultSweepLatency
	}
	if !f.ResilienceEnabled() {
		f.EnableResilience(fabric.Resilience{})
	}
	return &Manager{
		Cfg:       cfg,
		f:         f,
		eng:       f.Eng,
		g:         f.G,
		downCount: make(map[topo.LinkID]int),
		managed:   make(map[topo.LinkID]bool),
	}, nil
}

// Inject schedules every event of the fault timeline on the engine. Events
// in the past (before the engine's current time) are an error.
func (m *Manager) Inject(sched Schedule) error {
	for _, ev := range sched.Sorted() {
		if ev.At < m.eng.Now() {
			return fmt.Errorf("faults: event %v scheduled before now (%.6fs)", ev, float64(m.eng.Now()))
		}
		ev := ev
		m.eng.Schedule(ev.At, func(*sim.Engine) { m.apply(ev) })
	}
	return nil
}

// SweepLatencies returns the outage windows of all successful sweeps.
func (m *Manager) SweepLatencies() []sim.Duration {
	var out []sim.Duration
	for _, s := range m.Sweeps {
		if s.Rejected == nil {
			out = append(out, s.Latency())
		}
	}
	return out
}

// apply executes one fault event against the live graph.
func (m *Manager) apply(ev Event) {
	if int(ev.Link) < 0 || int(ev.Link) >= len(m.g.Links) {
		panic(fmt.Sprintf("faults: event references unknown link %d", ev.Link))
	}
	l := m.g.Links[ev.Link]
	var changed bool
	if ev.Kind == LinkDown {
		changed = m.down(l)
	} else {
		changed = m.up(l)
	}
	if !changed {
		return
	}
	m.changeTimes = append(m.changeTimes, m.eng.Now())
	m.rev++
	m.Injected++
	if m.OnApply != nil {
		m.OnApply(ev)
	}
	torn := 0
	if ev.Kind == LinkDown {
		if m.OnHealth != nil {
			m.OnHealth(false)
		}
		torn = m.f.FailChannels(func(c topo.ChannelID) bool {
			return m.g.Link(c) == l
		})
		m.TornDown += torn
	} else {
		// Repairs kill nothing, but cached paths must not bypass the
		// restored capacity until the SM actually reroutes.
		m.f.InvalidatePaths()
	}
	if tel := m.f.Tel; tel != nil {
		args := map[string]any{"event": ev.String()}
		if torn > 0 {
			args["flows_torn_down"] = torn
		}
		tel.Instant(telemetry.TracePidSM, 0, "fault", ev.Kind.String(), m.eng.Now(), args)
	}
	m.eng.After(m.Cfg.DetectionDelay, func(*sim.Engine) { m.maybeSweep() })
}

// down records one failure cause on l and reports whether it took l down.
func (m *Manager) down(l *topo.Link) bool {
	m.downCount[l.ID]++
	if l.Down {
		return false
	}
	l.Down = true
	m.managed[l.ID] = true
	return true
}

// up clears one failure cause on l and reports whether that brought l back
// up. Links downed statically at build time are not touched.
func (m *Manager) up(l *topo.Link) bool {
	if m.downCount[l.ID] == 0 {
		return false // never failed at runtime (e.g. statically degraded)
	}
	m.downCount[l.ID]--
	if m.downCount[l.ID] > 0 || !m.managed[l.ID] {
		return false
	}
	l.Down = false
	delete(m.managed, l.ID)
	return true
}

// maybeSweep starts a re-sweep when unswept changes exist and no sweep is
// running; a running sweep re-checks on completion, which is what coalesces
// failure bursts into few sweeps.
func (m *Manager) maybeSweep() {
	if m.sweeping || m.sweptRev >= m.rev {
		return
	}
	m.startSweep()
}

// startSweep recomputes tables against the current graph, optionally
// revalidates them, and schedules the atomic swap after the sweep latency.
func (m *Manager) startSweep() {
	startRev := m.rev
	s := Sweep{
		Trigger:  m.changeTimes[m.sweptRev],
		Detected: m.eng.Now(),
		Events:   startRev - m.sweptRev,
	}
	tables, err := m.Cfg.Rebuild()
	if err == nil && m.Cfg.Revalidate {
		var rep route.Report
		rep, err = route.Validate(tables)
		if err == nil {
			s.Validated = true
			s.DeadlockFree = rep.DeadlockFree
			s.Unreachable = rep.Unreachable
			if !rep.DeadlockFree {
				err = fmt.Errorf("faults: re-sweep with engine %s produced deadlock-prone tables", tables.Engine)
			}
		}
	}
	if err != nil {
		// Keep the old tables: a broken sweep must not take the fabric
		// down further. The next fabric change triggers another attempt.
		s.Rejected = err
		m.finishSweep(s)
		return
	}
	m.sweeping = true
	m.eng.After(m.Cfg.SweepLatency, func(*sim.Engine) {
		m.sweeping = false
		if err := m.f.SwapTables(tables); err != nil {
			s.Rejected = err
		} else {
			m.sweptRev = startRev
			s.Swapped = m.eng.Now()
			if m.sweptRev >= m.rev && m.OnHealth != nil {
				// Every change so far is covered by the swapped tables.
				m.OnHealth(true)
			}
		}
		m.finishSweep(s)
		// Changes may have queued up while we were programming switches;
		// the SM services them immediately, like OpenSM draining its trap
		// queue after a sweep.
		m.maybeSweep()
	})
}

func (m *Manager) finishSweep(s Sweep) {
	m.Sweeps = append(m.Sweeps, s)
	if tel := m.f.Tel; tel != nil {
		// The sweep renders as a span from SM detection to the table swap
		// (or the rejection instant); the args carry the outage window the
		// sweep closed and what the revalidation found.
		end := s.Swapped
		name := "sm-sweep"
		args := map[string]any{
			"events_covered": s.Events,
			"trigger_s":      float64(s.Trigger),
		}
		if s.Rejected != nil {
			end = m.eng.Now()
			name = "sm-sweep-rejected"
			args["rejected"] = s.Rejected.Error()
		} else {
			args["outage_window_s"] = float64(s.Latency())
		}
		if s.Validated {
			args["deadlock_free"] = s.DeadlockFree
			args["unreachable"] = s.Unreachable
		}
		tel.Span(telemetry.TracePidSM, 1, "sm", name, s.Detected, end, args)
		if s.Rejected == nil {
			tel.Instant(telemetry.TracePidSM, 1, "sm", "tables-swapped", s.Swapped, nil)
		}
	}
	if m.OnSwept != nil {
		m.OnSwept(s)
	}
}
