package exp

import (
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
)

// A scaled-down endurance run that exercises the whole RunScale loop —
// windowed closed-loop traffic, stride generator, drain check — in well
// under a second. It runs detached and instrumented: the instrumented arm
// checks one streamed msg line per delivery and XmitData of at least the
// delivered payload inside RunScale, and both arms must simulate the same
// run, so attaching telemetry does not perturb the simulation.
func TestRunScaleSmall(t *testing.T) {
	var arms [2]*ScaleResult
	for i, inst := range []bool{false, true} {
		var ticks int
		res, err := RunScale(ScaleSpec{
			S: []int{4, 4}, T: 8,
			Window: 32, Messages: 5000, MsgBytes: 4096,
			Strides: 4, Seed: 1, Instrumented: inst,
			Progress:      func(uint64, sim.Time, uint64) { ticks++ },
			ProgressEvery: 1000,
		})
		if err != nil {
			t.Fatalf("instrumented=%v: %v", inst, err)
		}
		if res.Terminals != 128 || res.Switches != 16 {
			t.Errorf("instrumented=%v: built %d terminals / %d switches, want 128 / 16", inst, res.Terminals, res.Switches)
		}
		if res.Delivered != 5000 {
			t.Errorf("instrumented=%v: Delivered = %d, want 5000", inst, res.Delivered)
		}
		if res.DeliveredBytes != 5000*4096 {
			t.Errorf("instrumented=%v: DeliveredBytes = %g, want %d", inst, res.DeliveredBytes, 5000*4096)
		}
		if res.SimElapsed <= 0 {
			t.Errorf("instrumented=%v: SimElapsed = %v, want > 0", inst, res.SimElapsed)
		}
		if res.Recomputes == 0 {
			t.Errorf("instrumented=%v: no flow recomputes recorded", inst)
		}
		if ticks < 5 {
			t.Errorf("instrumented=%v: progress fired %d times, want >= 5", inst, ticks)
		}
		arms[i] = res
	}
	d, in := arms[0], arms[1]
	if d.Delivered != in.Delivered || d.Events != in.Events ||
		d.Recomputes != in.Recomputes || d.SimElapsed != in.SimElapsed {
		t.Errorf("telemetry perturbed the run: detached delivered=%d events=%d recomputes=%d sim=%v, "+
			"instrumented delivered=%d events=%d recomputes=%d sim=%v",
			d.Delivered, d.Events, d.Recomputes, d.SimElapsed,
			in.Delivered, in.Events, in.Recomputes, in.SimElapsed)
	}
}

// TestScaleStrides pins the stride-generator contract: distinct offsets
// in [1, n-1] (the old modular formula emitted duplicates when Strides
// was large relative to n), clamping to the n-1 distinct offsets that
// exist, and a hard error on degenerate lattices instead of a self-send
// patch loop.
func TestScaleStrides(t *testing.T) {
	cases := []struct{ n, count, wantLen int }{
		{8, 20, 7},   // clamp: only 7 distinct non-self offsets exist
		{8, 7, 7},    // exact fit
		{128, 4, 4},  // spread across the index space
		{128, 8, 8},  // the default count at small n
		{2, 8, 1},    // minimum viable lattice
		{342, 0, 1},  // count floor
		{342, -3, 1}, // count floor on nonsense input
	}
	for _, c := range cases {
		strides, err := scaleStrides(c.n, c.count)
		if err != nil {
			t.Fatalf("scaleStrides(%d, %d): %v", c.n, c.count, err)
		}
		if len(strides) != c.wantLen {
			t.Errorf("scaleStrides(%d, %d) emitted %d strides, want %d",
				c.n, c.count, len(strides), c.wantLen)
		}
		seen := map[int]bool{}
		for _, s := range strides {
			if s < 1 || s > c.n-1 {
				t.Errorf("scaleStrides(%d, %d): stride %d outside [1, %d]", c.n, c.count, s, c.n-1)
			}
			if seen[s] {
				t.Errorf("scaleStrides(%d, %d): duplicate stride %d", c.n, c.count, s)
			}
			seen[s] = true
		}
	}
	for _, n := range []int{0, 1} {
		if _, err := scaleStrides(n, 8); err == nil {
			t.Errorf("scaleStrides(%d, 8): degenerate lattice accepted", n)
		}
	}
}

// TestScaleProgressNoDuplicateFinal checks the progress contract: when
// the budget is a multiple of ProgressEvery the last delivery's callback
// IS the final report, and the post-drain call must not repeat it.
func TestScaleProgressNoDuplicateFinal(t *testing.T) {
	run := func(messages uint64) []uint64 {
		var calls []uint64
		_, err := RunScale(ScaleSpec{
			S: []int{2, 2}, T: 2,
			Window: 8, Messages: messages, MsgBytes: 4096,
			Strides: 4, Seed: 1,
			Progress:      func(d uint64, _ sim.Time, _ uint64) { calls = append(calls, d) },
			ProgressEvery: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	// Budget divides ProgressEvery: exactly Messages/ProgressEvery calls,
	// the last one already carrying the final total.
	calls := run(2000)
	want := []uint64{500, 1000, 1500, 2000}
	if len(calls) != len(want) {
		t.Fatalf("progress calls %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", calls, want)
		}
	}
	// Budget leaves a tail: one extra final call with the drain total.
	calls = run(2200)
	if len(calls) != 5 || calls[4] != 2200 {
		t.Fatalf("progress calls %v, want [500 1000 1500 2000 2200]", calls)
	}
}

// TestRunScaleRejectsNegativeInputs: a negative window or message size is
// an error that names the field, instead of a run that stalls with nothing
// in flight or "delivers" negative bytes. The shape cannot be built, so a
// check that ran after the lattice build would report the shape instead.
func TestRunScaleRejectsNegativeInputs(t *testing.T) {
	cases := []struct {
		spec  ScaleSpec
		field string
	}{
		{ScaleSpec{S: []int{1}, Window: -3, Messages: 10}, "Window"},
		{ScaleSpec{S: []int{1}, MsgBytes: -5, Messages: 10}, "MsgBytes"},
	}
	for _, c := range cases {
		res, err := RunScale(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: RunScale returned %v, want an error naming %s", c.field, err, c.field)
		}
		if res != nil {
			t.Errorf("%s: RunScale returned a result alongside the error", c.field)
		}
	}
}

// The scale run builds its tables through the engine table: a name the
// table lacks and the Fat-Tree-only ftree are rejected, and every engine
// that runs on a HyperX drains the window, PARX over the bfo PML included.
func TestRunScaleRejectsUnknownRouting(t *testing.T) {
	for _, routing := range []string{"bogus", "ftree"} {
		if _, err := RunScale(ScaleSpec{S: []int{2, 2}, T: 2, Routing: routing, Messages: 1}); err == nil {
			t.Errorf("routing %q accepted", routing)
		}
	}
	for _, e := range Engines() {
		if !e.RunsOn("hyperx") {
			continue
		}
		res, err := RunScale(ScaleSpec{S: []int{4, 4}, T: 2, Routing: e.Name, Window: 8, Messages: 64, MsgBytes: 4096})
		if err != nil || res.Delivered != 64 {
			t.Errorf("routing %s: %v", e.Name, err)
		}
	}
}

// The default 12x8 lattice at T=683 has 65,568 terminals, more than the
// 65,535 that LMC 0 can address: the run reports the LID-space error.
func TestRunScaleRejectsLIDSpaceOverflow(t *testing.T) {
	if _, err := RunScale(ScaleSpec{T: 683, Messages: 1}); !errors.Is(err, route.ErrLIDSpace) {
		t.Fatalf("RunScale at T=683: %v, want route.ErrLIDSpace", err)
	}
}

// The acceptance-criteria configuration: a 12x8 HyperX at T=342 (32832
// terminals) delivering a million messages. Minutes of CPU, so gated.
func TestRunScale32kTerminals(t *testing.T) {
	if os.Getenv("T2HX_SCALE") == "" {
		t.Skip("set T2HX_SCALE=1 to run the 32k-terminal endurance configuration")
	}
	res, err := RunScale(ScaleSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals < 32768 {
		t.Errorf("Terminals = %d, want >= 32768", res.Terminals)
	}
	if res.Delivered < 1_000_000 {
		t.Errorf("Delivered = %d, want >= 1e6", res.Delivered)
	}
	t.Logf("terminals=%d delivered=%d sim=%.3fs build=%v run=%v recomputes=%d peakRSS=%.1f MiB",
		res.Terminals, res.Delivered, float64(res.SimElapsed), res.BuildWall, res.RunWall,
		res.Recomputes, float64(res.PeakRSSBytes)/(1<<20))
}
