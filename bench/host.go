package main

import "time"

// The host-speed reference.
//
// The benchmark runs on a few cores of a shared host, and what the
// neighbours do moves every timing by 10-40 % for seconds to minutes at a
// stretch: the same binary reads 82 k and 68 k qps five minutes apart. No
// statistic over a run's rounds removes that (median, best quartile and
// minimum of 5 to 40 slices were all tried: the whole run shifts), and the
// integer canary hardly feels it. A kernel that does what the engine does
// most, allocating small objects and storing them in a map, does: run
// between the ops on the client's own thread, its time over 20 s windows
// followed the time per op of point_hot and of analytic with a correlation of
// 0.99 and a slope of about one (README.md has the kernels tried).
//
// So every timing is reported at reference host speed: a round's wall-clock
// latencies are divided, and its throughput multiplied, by the round's host
// factor, which is the median of its probes over refProbeNS. The kernel
// touches no engine data, so a change to the engine moves the reported
// numbers by what it moves the wall clock. The wall-clock readings are
// printed beside every reported value, and the traced run reports them and
// the factor per layer (bench.wall_*, bench.host_factor). setup_s stays on
// the wall clock: a build is a half-second burst of allocation, and probes
// around it run into its collections.
const (
	// probeAllocs small objects are allocated by one probe and stored under
	// probeKeys map keys; nothing else in it allocates, so its share of the
	// round's allocation counters is known exactly and taken out.
	probeAllocs     = 4000
	probeKeys       = 1024
	probeAllocBytes = probeAllocs * 64
	// refProbeNS is one probe's time between ops on the sizing box when its
	// neighbours were quiet. It only fixes the scale: reported numbers are
	// what the wall clock reads when the host runs the probe this fast.
	refProbeNS = 150_000
	// probeGap is the work between two probes of a timed round, as time at
	// the workload's calibrated rate (so it is a fixed op count): 160 probes
	// in a 4 s round. They cost under 1 % of the round and are not in its
	// time.
	probeGap = 25 * time.Millisecond
)

// hostProbe is the reference kernel. It is used from the one client
// goroutine only.
type hostProbe struct {
	m map[int]*[8]int
}

func newHostProbe() *hostProbe {
	h := &hostProbe{m: make(map[int]*[8]int, probeKeys)}
	h.once() // the map allocates its tables on first use; later probes do not
	return h
}

// once times the kernel: probeAllocs 64-byte objects, each stored in the map
// over an older one.
func (h *hostProbe) once() time.Duration {
	start := time.Now()
	clear(h.m)
	for i := 0; i < probeAllocs; i++ {
		h.m[i&(probeKeys-1)] = &[8]int{i}
	}
	return time.Since(start)
}

// hostFactor is how much slower than the reference the host ran the probes:
// their median over refProbeNS. The median, because a probe that runs while
// the engine's collector is marking takes up to twice as long: a mean moved
// with how often the engine collects (half of what GOGC=200 gained point_hot
// went into the factor), the median does not. Without probes it is 1.
func hostFactor(probesNS []float64) float64 {
	if len(probesNS) == 0 {
		return 1
	}
	return median(probesNS) / refProbeNS
}
