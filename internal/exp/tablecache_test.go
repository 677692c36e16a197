package exp

import (
	"sync"
	"testing"

	"github.com/hpcsim/t2hx/internal/place"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

func smallCombo() Combo {
	return Combo{Name: "test", Topology: "hyperx", Routing: "dfsssp", Placement: place.Linear}
}

func smallPlane(t *testing.T) *Plane {
	t.Helper()
	m, err := BuildMachine(smallCombo(), MachineConfig{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	return m.Primary()
}

func TestTableCacheHealthyDegradedNeverAlias(t *testing.T) {
	c := NewTableCache(8)
	p := smallPlane(t)
	healthy, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.DegradeSwitchLinks(p.G, 3, 42); err != nil {
		t.Fatal(err)
	}
	degraded, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	if healthy == degraded {
		t.Fatal("healthy and degraded graphs returned the same cached tables")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (distinct keys)", s.Hits, s.Misses)
	}
	// The degraded tables must not forward over a down link anywhere —
	// i.e. they really were built against the degraded mask, not aliased
	// from the healthy entry.
	for _, sw := range p.G.Switches() {
		for lid := route.LID(1); lid <= degraded.MaxLID(); lid++ {
			if degraded.OwnerOf(lid) < 0 {
				continue
			}
			ch := degraded.NextHop(sw, lid)
			if ch != route.NoChannel && p.G.Link(ch).Down {
				t.Fatalf("degraded tables route switch %d lid %d over a down link", sw, lid)
			}
		}
	}
}

func TestTableCacheHitAfterSMRestore(t *testing.T) {
	c := NewTableCache(8)
	p := smallPlane(t)
	before, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
	if err != nil {
		t.Fatal(err)
	}

	// Mimic RunFaultScenario: fail links, rebuild (new key), restore the
	// mask, rebuild again — the last build must be a cache hit.
	down := p.G.LiveSwitchLinks()[:3]
	for _, l := range down {
		l.Down = true
	}
	if _, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables); err != nil {
		t.Fatal(err)
	}
	for _, l := range down {
		l.Down = false
	}
	after, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1 hit / 2 misses", s.Hits, s.Misses)
	}
	if before != after {
		t.Fatal("restored mask did not return the identical cached tables")
	}
}

func TestTableCacheRebindsToRequestersGraph(t *testing.T) {
	c := NewTableCache(8)
	pa := smallPlane(t)
	pb := smallPlane(t)
	ta, err := c.Get(pa.G, "dfsssp", 0, pa.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.Get(pb.G, "dfsssp", 0, pb.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 for two identical machines", s.Hits, s.Misses)
	}
	if ta.G != pa.G || tb.G != pb.G {
		t.Fatal("cached tables not rebound to the requesting machine's graph")
	}
	if !ta.Frozen() || !tb.Frozen() {
		t.Fatal("cached tables must be frozen")
	}
	// Shared forwarding state: identical next hops through both bindings.
	for _, sw := range pa.G.Switches() {
		if ta.NextHop(sw, ta.BaseLID[0]) != tb.NextHop(sw, tb.BaseLID[0]) {
			t.Fatal("rebound tables diverge")
		}
	}
}

func TestTableCacheSingleflight(t *testing.T) {
	c := NewTableCache(8)
	p := smallPlane(t)
	var mu sync.Mutex
	builds := 0
	build := func() (*route.Tables, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return p.buildTables()
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(p.G, p.Spec.Routing, 0, build); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times for one key, want 1", builds)
	}
}

func TestTableCacheEviction(t *testing.T) {
	c := NewTableCache(2)
	p := smallPlane(t)
	for _, eng := range []string{"dfsssp", "sssp", "updown"} {
		eng := eng
		if _, err := c.Get(p.G, eng, 0, func() (*route.Tables, error) {
			sp := *p
			sp.Spec.Routing = eng
			return sp.buildTables()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", c.Len())
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("eviction counter = %d after one overflow, want 1", got)
	}
	// The oldest key (dfsssp) was evicted: requesting it again rebuilds.
	missesBefore := c.Stats().Misses
	if _, err := c.Get(p.G, "dfsssp", 0, p.buildTables); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != missesBefore+1 {
		t.Fatal("evicted key did not rebuild")
	}
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("eviction counter = %d after re-requesting the evicted key, want 2", got)
	}
}

// Degraded-sweep pressure: hundreds of near-identical down sets (a random
// walk of single-link flips over one failure chain) churning through a
// small cache. The cache must stay within its cap, and every returned
// table must match the down set it was requested under.
func TestTableCacheDegradedSweepPressure(t *testing.T) {
	c := NewTableCache(16)
	p := smallPlane(t)
	chain, err := topo.DegradeChain(p.G, 12, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(9)
	for i := 0; i < 300; i++ {
		l := p.G.Links[chain[rng.Intn(len(chain))]]
		l.Down = !l.Down
		tb, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if c.Len() > 16 {
			t.Fatalf("step %d: cache grew to %d entries past cap 16", i, c.Len())
		}
		// The tables must have been built against this exact mask: no next
		// hop may cross a currently-down link.
		for _, sw := range p.G.Switches() {
			for lid := route.LID(1); lid <= tb.MaxLID(); lid++ {
				if tb.OwnerOf(lid) < 0 {
					continue
				}
				if ch := tb.NextHop(sw, lid); ch != route.NoChannel && p.G.Link(ch).Down {
					t.Fatalf("step %d: cached tables for down set %x route over a down link", i, p.G.DownHash())
				}
			}
		}
	}
	s := c.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("pressure walk saw hits=%d misses=%d; want both (revisits hit, evictions miss)", s.Hits, s.Misses)
	}
	if want := s.Misses - uint64(c.Len()); s.Evictions != want {
		t.Fatalf("evictions=%d, want misses-resident=%d (every miss past residency evicts)", s.Evictions, want)
	}
	t.Logf("300 near-identical down sets: %d hits, %d misses, %d evictions, %d resident",
		s.Hits, s.Misses, s.Evictions, c.Len())
}

// Regression: two down masks differing in exactly one link must never share
// a cache entry — a collision would silently serve tables that route over
// the dead link. Every live switch link is tried.
func TestTableCacheKeysDistinguishSingleLink(t *testing.T) {
	c := NewTableCache(128)
	p := smallPlane(t)
	base, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range p.G.LiveSwitchLinks() {
		l.Down = true
		tb, err := c.Get(p.G, p.Spec.Routing, 0, p.buildTables)
		if err != nil {
			t.Fatal(err)
		}
		if tb == base {
			t.Fatalf("mask differing only in link %d aliased the healthy entry", l.ID)
		}
		l.Down = false
	}
	s := c.Stats()
	if want := uint64(len(p.G.LiveSwitchLinks())) + 1; s.Misses != want {
		t.Fatalf("%d misses for %d distinct masks", s.Misses, want)
	}
	if s.Hits != 0 {
		t.Fatalf("%d unexpected hits: some single-link mask collided", s.Hits)
	}
}

func TestPlaneRebuildUsesDefaultCache(t *testing.T) {
	p := smallPlane(t)
	hitsBefore := DefaultTableCache.Stats().Hits
	tb, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter := DefaultTableCache.Stats().Hits
	if hitsAfter == hitsBefore {
		t.Fatal("Rebuild on an already-built plane missed the default cache")
	}
	if !tb.Frozen() {
		t.Fatal("Rebuild returned unfrozen tables")
	}
	if tb.G != p.G {
		t.Fatal("Rebuild returned tables bound to a foreign graph")
	}
}
