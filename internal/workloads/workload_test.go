package workloads

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

func TestFactorProperties(t *testing.T) {
	f := func(nRaw, dRaw uint8) bool {
		n := 1 + int(nRaw)%672
		d := 2 + int(dRaw)%3 // 2..4
		dims := Factor(n, d)
		if len(dims) != d {
			return false
		}
		prod := 1
		for _, x := range dims {
			if x < 1 {
				return false
			}
			prod *= x
		}
		return prod == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFactorBalance(t *testing.T) {
	dims := Factor(64, 3)
	if dims[0] != 4 || dims[1] != 4 || dims[2] != 4 {
		t.Errorf("Factor(64,3) = %v, want [4 4 4]", dims)
	}
	dims = Factor(672, 3) // 672 = 2^5*3*7 -> e.g. 12x8x7 or similar balance
	if dims[0] > 14 {
		t.Errorf("Factor(672,3) = %v too unbalanced", dims)
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	dims := []int{3, 4, 5}
	for r := 0; r < 60; r++ {
		c := gridCoord(r, dims)
		if gridRank(c, dims) != r {
			t.Fatalf("round trip failed for rank %d", r)
		}
	}
}

func TestLadders(t *testing.T) {
	a := App{PowerOfTwo: false}
	got := a.Ladder(672)
	want := []int{7, 14, 28, 56, 112, 224, 448, 672}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	p := App{PowerOfTwo: true}
	got = p.Ladder(672)
	want = []int{4, 8, 16, 32, 64, 128, 256, 512}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pow2 ladder = %v, want %v", got, want)
		}
	}
}

func TestTable2Registry(t *testing.T) {
	reg := Registry()
	if len(reg) != 12 {
		t.Fatalf("registry has %d entries, want 12 (9 apps + 3 x500)", len(reg))
	}
	wantAbbrev := []string{"AMG", "CoMD", "MiFE", "FFT", "FFVC", "mVMC", "NTCh", "MILC", "Qbox", "HPL", "HPCG", "GraD"}
	for i, a := range reg {
		if a.Abbrev != wantAbbrev[i] {
			t.Errorf("registry[%d] = %s, want %s", i, a.Abbrev, wantAbbrev[i])
		}
		if a.Build == nil {
			t.Errorf("%s has no builder", a.Abbrev)
		}
		if len(a.MPIFuncs) == 0 {
			t.Errorf("%s has no MPI function list (Table 2)", a.Abbrev)
		}
		if a.Scaling != "weak" && a.Scaling != "strong" && a.Scaling != "weak*" {
			t.Errorf("%s scaling = %q", a.Abbrev, a.Scaling)
		}
	}
	// Table 2: NTChem is the only strong-scaling app.
	for _, a := range reg {
		if (a.Abbrev == "NTCh") != (a.Scaling == "strong") {
			t.Errorf("%s scaling = %s, mismatch with Table 2", a.Abbrev, a.Scaling)
		}
	}
	if _, err := FindApp("AMG"); err != nil {
		t.Error(err)
	}
	if _, err := FindApp("nope"); err == nil {
		t.Error("FindApp accepted unknown abbrev")
	}
}

// smallFabric: a 4x2 HyperX with 2 terminals per switch (16 nodes).
func smallFabric(t *testing.T) (*topo.HyperX, *fabric.Fabric) {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 2}, T: 2, Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	return hx, fabric.New(sim.NewEngine(), tb, fabric.DefaultParams(), 1)
}

// Every registered app must build and run to completion on a small
// allocation without deadlock, and produce a positive metric.
func TestAllAppsRunToCompletion(t *testing.T) {
	for _, a := range Registry() {
		a := a
		t.Run(a.Abbrev, func(t *testing.T) {
			hx, f := smallFabric(t)
			n := 8
			inst := a.Instance(n)
			if len(inst.Progs) != n {
				t.Fatalf("built %d programs, want %d", len(inst.Progs), n)
			}
			res, err := mpi.Run(f, a.Abbrev, hx.Terminals()[:n], inst.Progs, mpi.Options{})
			if err != nil {
				t.Fatal(err)
			}
			score := inst.Score(res.Elapsed)
			if score <= 0 {
				t.Errorf("score = %v", score)
			}
			t.Logf("%s n=%d: elapsed=%.2fs metric=%.3f %s", a.Abbrev, n, float64(res.Elapsed), score, a.Metric)
		})
	}
}

func TestAppsRunOnOddNodeCounts(t *testing.T) {
	// The 7,14,... ladder exercises non-power-of-two communicators.
	for _, abbrev := range []string{"AMG", "CoMD", "MiFE", "NTCh", "Qbox", "HPL", "HPCG"} {
		a, err := FindApp(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		hx, f := smallFabric(t)
		inst := a.Instance(7)
		if _, err := mpi.Run(f, a.Abbrev, hx.Terminals()[:7], inst.Progs, mpi.Options{}); err != nil {
			t.Fatalf("%s on 7 nodes: %v", abbrev, err)
		}
	}
}

func TestWeakScalingKeepsRuntimeFlat(t *testing.T) {
	// A weak-scaled app should take roughly the same time on 4 and 8
	// nodes (modulo communication growth).
	a, _ := FindApp("CoMD")
	var elapsed [2]sim.Duration
	for i, n := range []int{4, 8} {
		hx, f := smallFabric(t)
		inst := a.Instance(n)
		res, err := mpi.Run(f, "comd", hx.Terminals()[:n], inst.Progs, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		elapsed[i] = res.Elapsed
	}
	ratio := float64(elapsed[1]) / float64(elapsed[0])
	if ratio > 1.5 || ratio < 0.8 {
		t.Errorf("weak scaling 4->8 runtime ratio = %.2f, want ~1", ratio)
	}
}

func TestStrongScalingShrinksRuntime(t *testing.T) {
	a, _ := FindApp("NTCh")
	var elapsed [2]sim.Duration
	for i, n := range []int{4, 8} {
		hx, f := smallFabric(t)
		inst := a.Instance(n)
		res, err := mpi.Run(f, "ntch", hx.Terminals()[:n], inst.Progs, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		elapsed[i] = res.Elapsed
	}
	if elapsed[1] >= elapsed[0] {
		t.Errorf("strong scaling did not speed up: %v -> %v", elapsed[0], elapsed[1])
	}
}

func TestIMBAllOps(t *testing.T) {
	for _, op := range IMBOps() {
		hx, f := smallFabric(t)
		inst, err := BuildIMB(op, 8, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mpi.Run(f, op, hx.Terminals()[:8], inst.Progs, mpi.Options{}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	if _, err := BuildIMB("bogus", 4, 1); err == nil {
		t.Error("unknown IMB op accepted")
	}
}

func TestIMBLatencyGrowsWithSize(t *testing.T) {
	sizes := []int64{1, 4096, 1 << 20}
	var prev float64
	for _, s := range sizes {
		hx, f := smallFabric(t)
		inst, _ := BuildIMB("alltoall", 8, s)
		res, err := mpi.Run(f, "a2a", hx.Terminals()[:8], inst.Progs, mpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lat := inst.Score(res.Elapsed)
		if lat <= prev {
			t.Errorf("alltoall latency not monotone: size %d -> %v us", s, lat)
		}
		prev = lat
	}
}

func TestMultiPingPongAndEmDL(t *testing.T) {
	hx, f := smallFabric(t)
	inst := BuildMultiPingPong(8, 512, 3)
	if _, err := mpi.Run(f, "mupp", hx.Terminals()[:8], inst.Progs, mpi.Options{}); err != nil {
		t.Fatal(err)
	}
	hx, f = smallFabric(t)
	inst = BuildEmDL(8, 2)
	res, err := mpi.Run(f, "emdl", hx.Terminals()[:8], inst.Progs, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two 0.1s compute phases put a floor under the runtime.
	if res.Elapsed < 0.2 {
		t.Errorf("EmDL elapsed = %v, want >= 0.2s", res.Elapsed)
	}
}

func TestBaiduLadder(t *testing.T) {
	ls := BaiduArrayLengths()
	if ls[0] != 0 || ls[len(ls)-1] != 536870912 {
		t.Errorf("Baidu ladder endpoints wrong: %v", ls)
	}
	hx, f := smallFabric(t)
	inst := BuildBaiduAllreduce(8, 1024)
	if _, err := mpi.Run(f, "baidu", hx.Terminals()[:8], inst.Progs, mpi.Options{}); err != nil {
		t.Fatal(err)
	}
	// Zero length must still work (synchronization only).
	hx, f = smallFabric(t)
	inst = BuildBaiduAllreduce(8, 0)
	if _, err := mpi.Run(f, "baidu0", hx.Terminals()[:8], inst.Progs, mpi.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestMpiGraphDetectsSharedCable(t *testing.T) {
	// 2 switches x 4 terminals joined by one cable: cross-switch pairs
	// must observe far less bandwidth than the line rate.
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{2, 2}, T: 4, Bandwidth: 1e9, Latency: 100 * sim.Nanosecond,
	})
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(sim.NewEngine(), tb, fabric.DefaultParams(), 1)
	ranks := hx.Terminals()
	res := MpiGraph(f, ranks, 1<<20)
	if res.AvgGiB <= 0 {
		t.Fatal("no bandwidth measured")
	}
	if res.MinGiB >= res.MaxGiB {
		t.Error("mpiGraph saw uniform bandwidth despite shared cables")
	}
	for i := range res.BW {
		if res.BW[i][i] != 0 {
			t.Error("diagonal must be zero")
		}
	}
}

func TestEBBBasics(t *testing.T) {
	hx, f := smallFabric(t)
	res, err := EffectiveBisectionBandwidth(f, hx.Terminals()[:8], 20, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("samples = %d, want 20", len(res.Samples))
	}
	if res.MeanGiB <= 0 || res.MeanGiB > GiB(topo.QDRBandwidth) {
		t.Errorf("eBB mean = %.2f GiB/s out of physical range", res.MeanGiB)
	}
	if res.MinGiB > res.MeanGiB || res.MaxGiB < res.MeanGiB {
		t.Error("eBB min/mean/max inconsistent")
	}
	if _, err := EffectiveBisectionBandwidth(f, hx.Terminals()[:1], 1, 1, 1); err == nil {
		t.Error("eBB accepted single node")
	}
}

// Without samples the mean would be NaN and the min the -1 sentinel.
func TestEBBRejectsNoSamples(t *testing.T) {
	hx, f := smallFabric(t)
	for _, samples := range []int{0, -3} {
		if res, err := EffectiveBisectionBandwidth(f, hx.Terminals()[:8], samples, 1<<20, 7); err == nil {
			t.Errorf("eBB with %d samples = %+v, want an error", samples, res)
		}
	}
}

func TestFrontierWeightsNormalized(t *testing.T) {
	var sum float64
	for l := 0; l < 8; l++ {
		w := frontierWeight(l, 8)
		if w < 0 {
			t.Fatal("negative frontier weight")
		}
		sum += w
	}
	if sum < 0.9 || sum > 1.1 {
		t.Errorf("frontier weights sum = %v, want ~1", sum)
	}
}

// BuildIncast is the grouped incast with one group: rank 0 posts a receive
// from every other rank, each of them sends size bytes to it, and rank 0
// waits for all, imbIterations times. The reference program is built here
// op by op and must match both builders exactly.
func TestIncastIsOneGroupIncast(t *testing.T) {
	for _, n := range []int{2, 3, 8, 28, 32} {
		b := mpi.NewBuilder(n)
		for it := 0; it < imbIterations; it++ {
			tag := b.NextTag()
			var handles []int32
			for i := 1; i < n; i++ {
				handles = append(handles, b.Progs[0].Irecv(mpi.Rank(i), tag))
			}
			for i := 1; i < n; i++ {
				b.Progs[i].Send(0, 4096, tag)
			}
			b.Progs[0].Wait(handles...)
		}
		want := &Instance{Progs: b.Progs, Ops: imbIterations}
		plain, err := BuildIncast(n, 4096)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := BuildGroupedIncast(n, n, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, want) || !reflect.DeepEqual(grouped, want) {
			t.Errorf("n=%d: incast programs differ from the one-group reference", n)
		}
	}
}
