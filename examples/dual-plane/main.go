// Dual-plane failover: TSUBAME2 kept every compute node attached to two
// rails — the original full-bisection Fat-Tree and the rebuilt 12x8
// HyperX (Sec. 2). This walkthrough runs an Alltoall over the HyperX rail
// under a failover policy, then kills the *entire* HyperX switch fabric
// mid-run: every inter-switch link goes dark at once, the plane's subnet
// manager re-sweeps and (with the fabric shattered) keeps rejecting its
// rebuilt tables, and the multi-fabric redispatches every stranded
// message onto the Fat-Tree rail. The survival criterion is zero lost
// messages — the dual-rail design means a whole-plane outage degrades
// bandwidth, not correctness.
//
// Run with -small for the 32-node test planes (fast); the default uses
// the full 672-node paper planes and takes a minute or two.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/faults"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func main() {
	small := flag.Bool("small", false, "use the 32-node test planes")
	n := flag.Int("n", 28, "Alltoall ranks")
	size := flag.Int64("size", 256<<10, "message size in bytes")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.Parse()

	if *small {
		// Shrink the defaults to match the 32-node planes, but let an
		// explicit -n / -size win over the -small presets.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["n"] {
			*n = 32
		}
		if !explicit["size"] {
			*size = 64 << 10
		}
	}

	// The machine is the paper's dual-plane configuration, but with the
	// failover policy primed on the HyperX rail (plane 1) so the outage
	// hits the plane actually carrying the traffic.
	combo := exp.DualPlaneCombo()
	combo.Policy = "failover:1"
	m, err := exp.BuildMachine(combo, exp.MachineConfig{Degrade: true, Seed: *seed, Small: *small})
	if err != nil {
		log.Fatal(err)
	}
	ranks, err := m.Place(*n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	build := func() *workloads.Instance {
		inst, err := workloads.BuildIMB("alltoall", *n, *size)
		if err != nil {
			log.Fatal(err)
		}
		return inst
	}

	fmt.Println("Dual-plane failover: full HyperX-plane outage under a live Alltoall")
	fmt.Printf("machine: %s\n", combo.Name)
	for i, p := range m.Planes {
		fmt.Printf("  plane %d: %s — %s (%d nodes)\n", i, p.Spec.Label(), p.G.Name, p.G.NumTerminals())
	}
	fmt.Printf("workload: imb:alltoall, %d ranks, %d B messages, policy failover:1\n\n", *n, *size)

	// Fault-free baseline on the same machine: calibrates the makespan and
	// tells us where mid-run is.
	mfBase, err := m.NewMultiFabric(*seed)
	if err != nil {
		log.Fatal(err)
	}
	base, err := mpi.Run(mfBase, "baseline", ranks, build().Progs, mpi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline makespan: %.3f ms (all traffic on %s)\n",
		1e3*float64(base.Elapsed), mfBase.PlaneName(1))

	// Faulted run: arm cross-plane redispatch before wiring the subnet
	// manager so the manager reuses the resilience layer, then schedule
	// the whole-plane outage a third of the way into the run.
	mf, err := m.NewMultiFabric(*seed)
	if err != nil {
		log.Fatal(err)
	}
	mf.EnableResilience(fabric.Resilience{})
	mgr, err := faults.NewManager(mf.Plane(1), faults.SMConfig{
		Rebuild:    m.Planes[1].Rebuild,
		Revalidate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr.OnHealth = func(healthy bool) { mf.SetPlaneHealth(1, healthy) }
	outageAt := sim.Time(base.Elapsed) / 3
	sched := faults.PlaneOutage(m.Planes[1].G, outageAt, 0)
	if err := mgr.Inject(sched); err != nil {
		log.Fatal(err)
	}
	res, err := mpi.Run(mf, "plane-outage", ranks, build().Progs, mpi.Options{})
	if err != nil {
		log.Fatalf("faulted run: %v", err)
	}

	fmt.Printf("outage: %d links of %s killed at %.3f ms\n",
		len(sched), mf.PlaneName(1), 1e3*float64(outageAt))
	fmt.Printf("faulted makespan: %.3f ms (%+.1f%%)\n",
		1e3*float64(res.Elapsed), 100*(float64(res.Elapsed)/float64(base.Elapsed)-1))
	rejected := 0
	for _, s := range mgr.Sweeps {
		if s.Rejected != nil {
			rejected++
		}
	}
	fmt.Printf("SM on %s: %d sweeps, %d rejected (the shattered plane cannot produce valid tables)\n",
		mf.PlaneName(1), len(mgr.Sweeps), rejected)
	fmt.Printf("flows torn down: %d, cross-plane redispatches: %d\n", mgr.TornDown, mf.Redispatches)
	for p := 0; p < mf.NumPlanes(); p++ {
		share := 0.0
		if mf.Messages > 0 {
			share = 100 * float64(mf.PlaneMessages[p]) / float64(mf.Messages)
		}
		fmt.Printf("  %-8s carried %5d msgs (%.1f%%), gave up on %d\n",
			mf.PlaneName(p), mf.PlaneMessages[p], share, mf.Plane(p).GiveUps)
	}
	fmt.Printf("delivered %d of %d messages\n\n", mf.Delivered, mf.Messages)

	if mf.Delivered != mf.Messages || mf.Plane(0).GiveUps != 0 || mf.Plane(1).GiveUps != 0 {
		log.Fatal("messages were lost — dual-plane failover failed")
	}
	fmt.Println("Reading the numbers:")
	fmt.Println("  - Before the outage the failover policy keeps everything on the")
	fmt.Println("    HyperX rail; after it, new sends skip the unhealthy plane and")
	fmt.Println("    in-flight messages whose path died migrate to the Fat-Tree")
	fmt.Println("    without consuming their retry budget.")
	fmt.Println("  - The HyperX SM keeps rejecting re-sweeps: with every inter-switch")
	fmt.Println("    link down there are no valid tables to swap in, so the plane")
	fmt.Println("    stays marked unhealthy for the rest of the run.")
	fmt.Println("  - 'delivered N of N' is the survival criterion: a whole-plane")
	fmt.Println("    outage costs bandwidth, never messages.")
}
