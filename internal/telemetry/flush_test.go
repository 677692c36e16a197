package telemetry_test

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// flushRun executes a fixed overlapping-traffic workload over a 4x4 HyperX
// with counters attached, optionally failing a link mid-run (with the retry
// layer on, so every message still delivers) and optionally probing the
// counters mid-run at the given instants. The probes call the reading
// accessors — TotalXmitData, MaxWait, MaxActive — which force the flow
// network's lazily-deferred rate integrals (the FlushCounters barrier).
// They must be pure observations: the run's dynamics and final counters
// cannot depend on whether, or how often, anyone looked.
func flushRun(t *testing.T, withFault bool, probes []sim.Duration) (*telemetry.Collector, *fabric.Fabric, sim.Time) {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 1,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f := fabric.New(eng, tb, fabric.DefaultParams(), 1)
	col := telemetry.New(hx.Graph, telemetry.Options{Counters: true, Messages: true})
	f.AttachTelemetry(col)
	f.EnableResilience(fabric.Resilience{RetryBackoff: 10 * sim.Microsecond, MaxRetries: 16})

	// Staggered, overlapping transfers: enough concurrency that most probe
	// instants land with several flows mid-interval (deferred integrals
	// outstanding on many channels).
	terms := hx.Terminals()
	n := len(terms)
	const msgs = 60
	var lastAt sim.Time
	for i := 0; i < msgs; i++ {
		src := terms[i%n]
		dst := terms[(i*5+3)%n] // (i*5+3)-i = 4i+3 is odd, never ≡ 0 mod 16
		size := int64(1<<15 + i*4096)
		eng.Schedule(sim.Time(i)*7*sim.Microsecond, func(*sim.Engine) {
			f.Send(src, dst, size, func(at sim.Time) {
				if at > lastAt {
					lastAt = at
				}
			})
		})
	}

	if withFault {
		// Mid-run teardown: a switch-to-switch cable on a busy path dies
		// while transfers stream across it; the bounded-retry layer re-sends
		// the victims once the repaired tables land.
		path, err := f.Tables.Path(terms[0], f.Tables.BaseLID[f.Tables.TermIndex(terms[3])])
		if err != nil {
			t.Fatal(err)
		}
		victim := hx.Graph.Link(path[1])
		eng.Schedule(150*sim.Microsecond, func(*sim.Engine) {
			victim.Down = true
			f.FailChannels(func(c topo.ChannelID) bool { return hx.Graph.Link(c) == victim })
		})
		eng.Schedule(250*sim.Microsecond, func(*sim.Engine) {
			nt, err := route.SSSP(hx.Graph, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.SwapTables(nt); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, at := range probes {
		eng.Schedule(at, func(*sim.Engine) {
			// Reading accessors flush implicitly; touch all three counter
			// families plus a raw-slice read behind an explicit barrier.
			col.Chans.TotalXmitData()
			col.Chans.MaxWait()
			col.Chans.MaxActive()
			col.Chans.Flush()
			_ = col.Chans.XmitData[0]
		})
	}

	eng.Run()
	if f.Delivered != msgs {
		t.Fatalf("delivered %d of %d messages (fault=%v)", f.Delivered, msgs, withFault)
	}
	return col, f, lastAt
}

// TestMidRunFlushEquivalence is the observer-effect property for the lazy
// counter integration: a run probed mid-flight at many instants — including
// during a fault teardown — must end with the same clock, deliveries, and
// per-channel counters as the identical run nobody looked at. ActiveHWM is
// exact; the byte/wait integrals are compared at ulp-level tolerance, since
// a flush merely splits one piecewise-constant interval's accumulation into
// two float additions.
func TestMidRunFlushEquivalence(t *testing.T) {
	probes := []sim.Duration{
		30 * sim.Microsecond, 90 * sim.Microsecond,
		149 * sim.Microsecond, // one event before the fault instant
		151 * sim.Microsecond, // right after teardown, retries pending
		260 * sim.Microsecond, // after the table swap
		400 * sim.Microsecond, 700 * sim.Microsecond,
	}
	for _, tc := range []struct {
		name      string
		withFault bool
	}{
		{"healthy", false},
		{"fault-teardown", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blind, fb, blindLast := flushRun(t, tc.withFault, nil)
			probed, fp, probedLast := flushRun(t, tc.withFault, probes)

			// Eng.Now() ends at the last event either run executed — the
			// probed run's clock legitimately ends at its final probe. The
			// dynamics invariant is the last DELIVERY instant, bit-exact.
			if blindLast != probedLast {
				t.Errorf("probed run's last delivery at %v, blind at %v (probes altered the dynamics)",
					probedLast, blindLast)
			}
			if fb.Delivered != fp.Delivered || fb.DeliveredBytes != fp.DeliveredBytes {
				t.Errorf("probed delivered %d/%g, blind %d/%g",
					fp.Delivered, fp.DeliveredBytes, fb.Delivered, fb.DeliveredBytes)
			}
			if fb.Retries != fp.Retries {
				t.Errorf("probed run retried %d times, blind %d", fp.Retries, fb.Retries)
			}

			b, p := blind.Chans, probed.Chans
			b.Flush()
			p.Flush()
			for c := range b.XmitData {
				if !closeRel(b.XmitData[c], p.XmitData[c], 1e-9) {
					t.Errorf("channel %d XmitData: blind %.6f, probed %.6f", c, b.XmitData[c], p.XmitData[c])
				}
				if !closeRel(float64(b.XmitWait[c]), float64(p.XmitWait[c]), 1e-9) {
					t.Errorf("channel %d XmitWait: blind %v, probed %v", c, b.XmitWait[c], p.XmitWait[c])
				}
				if b.ActiveHWM[c] != p.ActiveHWM[c] {
					t.Errorf("channel %d ActiveHWM: blind %d, probed %d", c, b.ActiveHWM[c], p.ActiveHWM[c])
				}
			}
			if !closeRel(float64(b.HCAWait), float64(p.HCAWait), 1e-9) {
				t.Errorf("HCAWait: blind %v, probed %v", b.HCAWait, p.HCAWait)
			}
			if !closeRel(b.TotalXmitData(), p.TotalXmitData(), 1e-9) {
				t.Errorf("TotalXmitData: blind %.6f, probed %.6f", b.TotalXmitData(), p.TotalXmitData())
			}
		})
	}
}

// TestFailChannelsIsFlushBarrier pins the snapshot contract of the fault
// path: FailChannels flushes before any teardown, so at the fault instant
// the RAW counter slices (no accessor, no explicit Flush) are already exact
// — summing XmitData directly must agree bit-for-bit with the flushing
// TotalXmitData accessor, and re-flushing at the same instant adds nothing.
func TestFailChannelsIsFlushBarrier(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 1,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f := fabric.New(eng, tb, fabric.DefaultParams(), 1)
	col := telemetry.New(hx.Graph, telemetry.Options{Counters: true})
	f.AttachTelemetry(col)
	f.EnableResilience(fabric.Resilience{RetryBackoff: 10 * sim.Microsecond, MaxRetries: 8})

	terms := hx.Terminals()
	for i := 0; i < 12; i++ {
		f.Send(terms[i], terms[(i+5)%len(terms)], 1<<20, func(sim.Time) {})
	}
	path, err := f.Tables.Path(terms[0], f.Tables.BaseLID[f.Tables.TermIndex(terms[5])])
	if err != nil {
		t.Fatal(err)
	}
	victim := hx.Graph.Link(path[1])

	checked := false
	eng.Schedule(50*sim.Microsecond, func(*sim.Engine) {
		victim.Down = true
		f.FailChannels(func(c topo.ChannelID) bool { return hx.Graph.Link(c) == victim })
		var raw float64
		for _, b := range col.Chans.XmitData {
			raw += b
		}
		if raw <= 0 {
			t.Errorf("raw XmitData sum %.0f at the fault instant, want > 0 (50us of streaming crossed the fabric)", raw)
		}
		if flushed := col.Chans.TotalXmitData(); flushed != raw {
			t.Errorf("FailChannels left deferred integrals behind: raw sum %.10f, post-flush %.10f", raw, flushed)
		}
		checked = true
	})
	eng.Schedule(200*sim.Microsecond, func(*sim.Engine) {
		nt, err := route.SSSP(hx.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SwapTables(nt); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if !checked {
		t.Fatal("fault event never ran")
	}
	if f.Delivered != 12 {
		t.Errorf("delivered %d of 12 after repair", f.Delivered)
	}
}

// closeRel reports a ≈ b within relative tolerance rel (with a tiny
// absolute floor for near-zero values).
func closeRel(a, b, rel float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12+rel*math.Max(math.Abs(a), math.Abs(b))
}
