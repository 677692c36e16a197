package topo

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	a := small2DHyperX()
	b := small2DHyperX()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("two builds of the same topology fingerprint differently: %#x vs %#x",
			a.Fingerprint(), b.Fingerprint())
	}
	if a.DownHash() != b.DownHash() {
		t.Errorf("two healthy builds have different down hashes: %#x vs %#x",
			a.DownHash(), b.DownHash())
	}
}

func TestFingerprintDistinguishesShapes(t *testing.T) {
	a := small2DHyperX()
	b := NewHyperX(HyperXConfig{S: []int{4, 4}, T: 3, Bandwidth: 1e9, Latency: 100 * sim.Nanosecond})
	c := NewHyperX(HyperXConfig{S: []int{8, 2}, T: 2, Bandwidth: 1e9, Latency: 100 * sim.Nanosecond})
	d := NewHyperX(HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: 2e9, Latency: 100 * sim.Nanosecond})
	fps := map[uint64]string{a.Fingerprint(): "base"}
	for name, g := range map[string]*Graph{"T=3": b.Graph, "8x2": c.Graph, "2x bw": d.Graph} {
		if prev, dup := fps[g.Fingerprint()]; dup {
			t.Errorf("%s aliases %s: fingerprint %#x", name, prev, g.Fingerprint())
		}
		fps[g.Fingerprint()] = name
	}
}

func TestDownHashTracksMaskNotFingerprint(t *testing.T) {
	hx := small2DHyperX()
	fp, dh := hx.Fingerprint(), hx.DownHash()

	degraded, err := DegradeSwitchLinks(hx.Graph, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if hx.Fingerprint() != fp {
		t.Errorf("degrading links changed the structural fingerprint")
	}
	if hx.DownHash() == dh {
		t.Errorf("degrading links did not change DownHash")
	}

	// Different degradation sets must hash differently from each other too.
	dhA := hx.DownHash()
	for _, l := range degraded {
		l.Down = false
	}
	if hx.DownHash() != dh {
		t.Errorf("restoring all links did not restore the original DownHash")
	}
	if _, err := DegradeSwitchLinks(hx.Graph, 5, 7); err != nil {
		t.Fatal(err)
	}
	if hx.DownHash() == dhA {
		t.Errorf("two different degradation sets alias in DownHash")
	}
}

// Regression: two down sets differing by exactly one link must never
// collide on DownHash. Zobrist hashing makes this exact — the hashes differ
// by the flipped link's salt, which is never zero.
func TestDownHashSingleLinkNeverCollides(t *testing.T) {
	hx := small2DHyperX()
	for _, l := range hx.Links {
		if LinkDownSalt(l.ID) == 0 {
			t.Fatalf("link %d has zero salt", l.ID)
		}
	}
	rng := sim.NewRand(99)
	for trial := 0; trial < 50; trial++ {
		for _, l := range hx.Links {
			l.Down = rng.Float64() < 0.3
		}
		base := hx.DownHash()
		for _, l := range hx.Links {
			l.Down = !l.Down
			if hx.DownHash() == base {
				t.Fatalf("trial %d: flipping link %d did not change hash %#x", trial, l.ID, base)
			}
			l.Down = !l.Down
		}
	}
}

func TestKindIndexesDense(t *testing.T) {
	hx := small2DHyperX()
	for i, s := range hx.Switches() {
		if got := hx.SwitchIndex(s); got != i {
			t.Fatalf("SwitchIndex(%d) = %d, want %d", s, got, i)
		}
		if got := hx.TerminalIndex(s); got != -1 {
			t.Fatalf("TerminalIndex(switch %d) = %d, want -1", s, got)
		}
	}
	for i, term := range hx.Terminals() {
		if got := hx.TerminalIndex(term); got != i {
			t.Fatalf("TerminalIndex(%d) = %d, want %d", term, got, i)
		}
		if got := hx.SwitchIndex(term); got != -1 {
			t.Fatalf("SwitchIndex(terminal %d) = %d, want -1", term, got)
		}
	}
}
