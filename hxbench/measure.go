package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
)

// digest is the simulated-output fingerprint of a unit of work: FNV-1a
// (hash/fnv) over everything the unit simulated. It is not a security
// hash; it only has to change when any simulated output does.
type digest uint64

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// hasher feeds simulated outputs into a digest, each word as its eight
// little-endian bytes.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) word(w uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], w)
	h.h.Write(h.buf[:])
}

func (h *hasher) float(f float64) { h.word(math.Float64bits(f)) }

func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	io.WriteString(h.h, s)
}

func (h *hasher) digest() digest { return digest(h.h.Sum64()) }

// counts are simulator counters summed over the fabrics of a unit.
type counts struct {
	messages, delivered                    uint64
	bytes, deliveredBytes                  float64
	retries, tornDown, giveUps, redispatch uint64
	recomputes, events                     uint64
}

// addFabric folds in one fabric's counters.
func (c *counts) addFabric(f *fabric.Fabric) {
	c.retries += f.Retries
	c.tornDown += f.TornDown
	c.giveUps += f.GiveUps
	c.redispatch += f.Redispatched
	c.recomputes += f.Net.Recomputes
}

// addMessenger folds in a finished run's transport: message totals at the
// messenger level (one logical send per message on a multi-plane machine),
// fabric counters per plane, and the engine's executed events.
func (c *counts) addMessenger(m fabric.Messenger) {
	switch f := m.(type) {
	case *fabric.Fabric:
		c.messages += f.Messages
		c.delivered += f.Delivered
		c.bytes += f.Bytes
		c.deliveredBytes += f.DeliveredBytes
	case *fabric.MultiFabric:
		c.messages += f.Messages
		c.delivered += f.Delivered
		c.bytes += f.Bytes
		c.deliveredBytes += f.DeliveredBytes
	}
	for _, f := range fabricsOf(m) {
		c.addFabric(f)
	}
	c.events += m.Engine().Processed
}

func (c *counts) merge(o counts) {
	c.messages += o.messages
	c.delivered += o.delivered
	c.bytes += o.bytes
	c.deliveredBytes += o.deliveredBytes
	c.retries += o.retries
	c.tornDown += o.tornDown
	c.giveUps += o.giveUps
	c.redispatch += o.redispatch
	c.recomputes += o.recomputes
	c.events += o.events
}

// lossless reports whether every submitted message and byte arrived.
func (c counts) lossless() bool {
	return c.delivered == c.messages && c.deliveredBytes == c.bytes
}

// unitResult is what one unit of simulated work produced.
type unitResult struct {
	ops    int    // operations attempted: messages, cells or fault scenarios
	failed int    // operations that errored, wedged or broke an invariant
	msgs   uint64 // simulated messages delivered, every simulated run counted
	digest digest
	cpu    float64 // host CPU seconds
	counts counts
	cache  exp.CacheStats
	// faults-layer counts (fault_resweep only).
	sweeps, rejectedSweeps int
	steps                  stepStats
	workerUtil             float64 // exp.Runner utilization, traced units
	problems               []string
	// keep holds the unit's simulation state until the end-of-run heap
	// reading.
	keep any
}

func (u *unitResult) fail(n int, format string, args ...any) {
	u.failed += n
	if u.failed > u.ops {
		u.failed = u.ops
	}
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

// gate applies the simulated-output check to a run's units: every unit
// must reproduce the first unit's digest, and the first must equal want
// when a digest is recorded for the seed (want != ""). Any mismatch fails
// every operation of the run; otherwise the failures are the units' own
// invariant failures.
func gate(units []unitResult, want string) (attempted, failed int, problems []string) {
	for _, u := range units {
		attempted += u.ops
		failed += u.failed
		problems = append(problems, u.problems...)
	}
	if len(units) == 0 {
		return 0, 0, nil
	}
	ref := units[0].digest
	mismatch := false
	for i, u := range units[1:] {
		if u.digest != ref {
			mismatch = true
			problems = append(problems, fmt.Sprintf("unit %d digest %s differs from unit 0 digest %s", i+1, u.digest, ref))
		}
	}
	if want != "" && ref.String() != want {
		mismatch = true
		problems = append(problems, fmt.Sprintf("digest %s differs from the recorded %s", ref, want))
	}
	if mismatch {
		failed = attempted
	}
	return attempted, failed, problems
}

// goStats is a snapshot of the Go runtime counters a phase is charged with.
type goStats struct {
	gcCycles, allocBytes, allocObjects uint64
	gcCPU                              float64
}

var goStatNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		gcCycles:     s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		allocObjects: s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{
		gcCycles:     a.gcCycles - b.gcCycles,
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

func (a *goStats) addDelta(end, start goStats) {
	d := end.sub(start)
	a.gcCycles += d.gcCycles
	a.allocBytes += d.allocBytes
	a.allocObjects += d.allocObjects
	a.gcCPU += d.gcCPU
}

// cpuSeconds is the host CPU time the process has used so far, user and
// system, over all its threads. Unlike wall-clock time it leaves out the
// time the hypervisor gives a virtual machine's CPUs to other guests: on a
// 2-vCPU VM of a shared host, this steal took up to a quarter of a
// single-threaded unit's wall time in some periods and almost none in
// others.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("hxbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMiB forces a collection and returns the live heap it marked —
// the runtime's own figure, independent of RSS and of when the collector
// last ran.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
