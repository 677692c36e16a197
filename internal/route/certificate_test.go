package route_test

import (
	"slices"
	"sync"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// The engines that keep a lane certificate (the lane pass's engines and
// ftree) must have it accepted on the degraded paper machines: Validate
// proves their lanes acyclic without building a CDG, and reports what the
// CDG check reports.
func TestValidateAcceptsEngineCertificates(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-size builds")
	}
	for _, seed := range []uint64{3, 11} {
		hx := topo.NewPaperHyperX(true, seed)
		ft := topo.NewPaperFatTree(true, seed)
		builds := []engineBuild{
			{"dfsssp", func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
			{"lash", func() (*route.Tables, error) { return route.LASH(hx.Graph, 0, 8) }},
			{"parx", func() (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }},
			{"hxmin", func() (*route.Tables, error) { return route.HXMin(hx, 0) }},
			{"hxnm", func() (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }},
			{"ftree", func() (*route.Tables, error) { return route.FTree(ft, 0) }},
		}
		for _, b := range builds {
			tb, err := b.build()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, b.name, err)
			}
			rep, certified, err := route.ValidateProof(tb)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, b.name, err)
			}
			if !certified {
				t.Errorf("seed %d %s: the lane certificate was not accepted", seed, b.name)
			}
			want, err := route.Validate(tb.WithLaneRanks(nil))
			if err != nil || rep != want {
				t.Errorf("seed %d %s: Validate = %+v; CDG check %+v, %v", seed, b.name, rep, want, err)
			}
			if !rep.DeadlockFree {
				t.Errorf("seed %d %s: not deadlock-free", seed, b.name)
			}
		}
	}
}

// A certificate that one dependency runs against must not be accepted:
// Validate falls back to the CDGs, whose verdict on the unchanged tables is
// still deadlock freedom.
func TestValidateFallsBackOnBrokenCertificate(t *testing.T) {
	hx := smallHyperX()
	if _, err := topo.DegradeSwitchLinks(hx.Graph, 6, 3); err != nil {
		t.Fatal(err)
	}
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, certified, err := route.ValidateProof(tb); err != nil || !certified {
		t.Fatalf("untouched certificate: certified %v, %v", certified, err)
	}
	// Swap the ranks of the two switch channels of a two-hop path.
	terms := hx.Terminals()
	var p []topo.ChannelID
	var vl uint8
	for _, dst := range terms[1:] {
		lid := tb.LIDFor(dst, 0)
		if p, err = tb.Path(terms[0], lid); err != nil {
			t.Fatal(err)
		}
		if route.SwitchHops(p) == 2 {
			vl = tb.SL(terms[0], lid)
			break
		}
	}
	if route.SwitchHops(p) != 2 {
		t.Fatal("no two-hop path from terminal 0")
	}
	ranks := slices.Clone(tb.LaneRanks())
	lane := slices.Clone(ranks[vl])
	c1, c2 := p[1], p[2]
	if lane[c1] >= lane[c2] {
		t.Fatalf("lane %d ranks dependency (%d, %d) as %d, %d", vl, c1, c2, lane[c1], lane[c2])
	}
	lane[c1], lane[c2] = lane[c2], lane[c1]
	ranks[vl] = lane
	tampered := tb.WithLaneRanks(ranks)
	rep, certified, err := route.ValidateProof(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if certified {
		t.Error("a certificate with a backward dependency was accepted")
	}
	want, wantErr := refValidate(tampered)
	if wantErr != nil || rep != want || !rep.DeadlockFree {
		t.Errorf("Validate = %+v; pair walk %+v, %v", rep, want, wantErr)
	}
}

// Forwarding tables rewired after the lane pass are checked against the
// certificate they carry: hxmin's single lane carrying SSSP's paths closes
// a dependency cycle, and Validate must say so, both with the ranks the
// lane pass left and with a lane that ranks every channel alike.
func TestValidateRejectsRewiredCyclicLane(t *testing.T) {
	hx := smallHyperX()
	hxmin, err := route.HXMin(hx, 0)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	rewired := hxmin.MutableClone()
	for _, sw := range hx.Switches() {
		for lid := route.LID(1); lid <= hxmin.MaxLID(); lid++ {
			rewired.SetNextHop(sw, lid, sssp.NextHop(sw, lid))
		}
	}
	want, wantErr := refValidate(rewired)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for _, ranks := range [][][]int32{hxmin.LaneRanks(), {nil}} {
		rep, certified, err := route.ValidateProof(rewired.WithLaneRanks(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if certified || rep.DeadlockFree {
			t.Errorf("cyclic lane: certified %v, DeadlockFree %v", certified, rep.DeadlockFree)
		}
		if rep != want {
			t.Errorf("Validate = %+v; pair walk %+v", rep, want)
		}
	}
}

// A lane pass run again starts from tables without a certificate.
func TestWithoutLanesClearsCertificate(t *testing.T) {
	tb, err := route.DFSSSP(smallHyperX().Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tb.LaneRanks() == nil {
		t.Fatal("DFSSSP kept no lane certificate")
	}
	if tb.WithoutLanes().LaneRanks() != nil {
		t.Error("WithoutLanes kept the lane certificate")
	}
}

// fuzzBase holds the tables FuzzValidateCertificate mutates, built once:
// dfsssp, lash, hxnm and parx on a degraded 4x4 T=2 HyperX and ftree on
// the small XGFT with four switch links down, which carry a lane
// certificate, then sssp on that XGFT and updown and nue on that HyperX,
// which carry none.
var fuzzBase struct {
	once   sync.Once
	tables []*route.Tables
	err    error
}

func fuzzTables() ([]*route.Tables, error) {
	fuzzBase.once.Do(func() {
		hx := smallHyperX()
		ft, err := topo.BuildXGFT(topo.XGFTConfig{M: []int{2, 4, 4}, W: []int{1, 3, 2}, Bandwidth: 1e9, Latency: 1e-7})
		if err != nil {
			fuzzBase.err = err
			return
		}
		if _, err := topo.DegradeSwitchLinks(hx.Graph, 6, 3); err != nil {
			fuzzBase.err = err
			return
		}
		if _, err := topo.DegradeSwitchLinks(ft.Graph, 4, 1); err != nil {
			fuzzBase.err = err
			return
		}
		for _, build := range []func() (*route.Tables, error){
			func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) },
			func() (*route.Tables, error) { return route.LASH(hx.Graph, 0, 8) },
			func() (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) },
			func() (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) },
			func() (*route.Tables, error) { return route.FTree(ft, 0) },
			func() (*route.Tables, error) { return route.SSSP(ft.Graph, 0) },
			func() (*route.Tables, error) { return route.UpDown(hx.Graph, 0) },
			func() (*route.Tables, error) { return route.Nue(hx.Graph, 0, 2) },
		} {
			tb, err := build()
			if err != nil {
				fuzzBase.err = err
				return
			}
			fuzzBase.tables = append(fuzzBase.tables, tb)
		}
	})
	return fuzzBase.tables, fuzzBase.err
}

// FuzzValidateCertificate mutates engine tables, with a lane certificate
// and without, and checks Validate against the pair walk, Report and error
// text. The first byte picks the engine (mod 8); with its high bit set,
// NumVL is reset to the engine's after the mutations, so raised SLs lie
// beyond it. Each following 5-byte record [op, a, b, c, d] is one
// mutation: op even sets the SL of terminal a toward LID offset c of
// terminal b to d mod (lanes+1); op odd points the LFT entry of switch a
// toward that LID at its live port d.
//
// The committed corpus (testdata/fuzz/FuzzValidateCertificate) holds each
// engine untouched and a few mutations of each kind, each input named
// after the engine its first byte picks, which go test runs as ordinary
// tests; make fuzz explores further.
func FuzzValidateCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		bases, err := fuzzTables()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		base := bases[int(data[0]&0x7f)%len(bases)]
		g := base.G
		terms, sws := g.Terminals(), g.Switches()
		span := 1 << base.LMC
		tb := base.MutableClone()
		recs := data[1:]
		for n := 0; len(recs) >= 5 && n < 16; n++ {
			r := recs[:5]
			recs = recs[5:]
			dst := int(r[2]) % len(terms)
			lid := tb.BaseLID[dst] + route.LID(int(r[3])%span)
			if r[0]%2 == 0 {
				src := terms[int(r[1])%len(terms)]
				tb.SetSL(src, lid, r[4]%uint8(max(base.NumVL, 1)+1))
				continue
			}
			sw := sws[int(r[1])%len(sws)]
			var live []topo.ChannelID
			for _, l := range g.Nodes[sw].Ports {
				if l != nil && !l.Down {
					live = append(live, l.Channel(sw))
				}
			}
			tb.SetNextHop(sw, lid, live[int(r[4])%len(live)])
		}
		if data[0]&0x80 != 0 {
			tb.NumVL = base.NumVL
		}
		rep, err := route.Validate(tb)
		want, wantErr := refValidate(tb)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s: Validate error %q, pair walk %q", tb.Engine, errText(err), errText(wantErr))
		}
		if err == nil && rep != want {
			t.Fatalf("%s: Validate = %+v, pair walk %+v", tb.Engine, rep, want)
		}
	})
}
