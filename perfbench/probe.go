package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures how fast the host runs the verifier's kind of code
// right now. On a shared host that speed drifts by 20 to 50% over
// seconds to minutes, with what other tenants do to the shared caches,
// the memory system and the cores; see README.md, "Host-speed scaling".
//
// A reading times two loops of the benchmark's own, which do not change
// when the program does, each run once on one CPU and once on every CPU
// at once. The verifier runs partly on one CPU and partly on all of
// them, and its time moves with the host between the two: by 2.4 times
// what the one-CPU loops move, and by 0.73 times what the every-CPU
// loops move; by 1.19 times their geometric mean, which is the scale.
// The loops are:
//   - a pointer chase through one fixed random cycle over probeLen int32
//     slots (16 MiB, more than a core's L2, like the verifier's heap).
//     Every step is a dependent load that misses L2 and the TLB, the
//     access pattern of hash-consing, simulation and SAT propagation.
//   - a xorshift loop, dependent register arithmetic that touches no
//     memory, which tracks the cores' own speed.
//
// The cycle is mapped outside the Go heap, so it neither counts in
// peak_heap_mb nor changes the garbage collector's pacing.
type hostProbe struct {
	mem  []byte
	next []int32
	pos  []int32  // each CPU's place in the cycle
	x    []uint64 // each CPU's xorshift state
}

const (
	probeLen    = 1 << 22
	chaseSteps  = 1 << 14
	arithSteps  = 1 << 20
	probeChunks = 5
	// The host speed the time metrics are scaled to: what a quiet
	// 2-CPU Xeon development host reads, 140 ns per chase step and
	// 2.4 ns per xorshift step. There, scaled and wall-clock figures
	// agree.
	chaseNominal = chaseSteps * 140 * time.Nanosecond
	arithNominal = arithSteps * 12 * time.Nanosecond / 5
)

// probeReading is one reading of both loops, on one CPU and on all.
type probeReading struct{ chase1, arith1, chaseN, arithN time.Duration }

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeLen*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map host probe: %w", err)
	}
	cpus := runtime.NumCPU()
	p := &hostProbe{mem: mem, next: unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeLen),
		pos: make([]int32, cpus), x: make([]uint64, cpus)}
	// Sattolo's shuffle: one cycle through every slot, the same on
	// every run.
	for i := range p.next {
		p.next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := probeLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for g := range p.pos {
		p.pos[g] = int32(g * probeLen / cpus)
		p.x[g] = uint64(g) + 1
	}
	p.chase(0, probeLen) // touch every page before the first timing
	return p, nil
}

func (p *hostProbe) chase(g, steps int) {
	j := p.pos[g]
	for k := 0; k < steps; k++ {
		j = p.next[j]
	}
	p.pos[g] = j
}

func (p *hostProbe) arith(g, steps int) {
	x := p.x[g]
	for k := 0; k < steps; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p.x[g] = x
}

// onEveryCPU runs f once per CPU, all at once, and returns the wall time
// until the last one ends.
func (p *hostProbe) onEveryCPU(f func(g int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range p.pos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// probeSettle is how long a reading first leaves every CPU idle. A
// garbage collection still marking the heap the verifier left behind
// then finishes on the idle CPUs instead of running beside the loops,
// which would read the program's own collector as a slow host.
const probeSettle = 20 * time.Millisecond

// measure times probeChunks runs of each loop, about 2.5 ms apiece, on
// one CPU and on all, and keeps the median of each. The median drops a
// run that the scheduler interrupted, which would otherwise read as a
// slow host.
func (p *hostProbe) measure() probeReading {
	time.Sleep(probeSettle)
	var c1, a1, cn, an [probeChunks]time.Duration
	for k := 0; k < probeChunks; k++ {
		c1[k] = timed(func() { p.chase(0, chaseSteps) })
		a1[k] = timed(func() { p.arith(0, arithSteps) })
		cn[k] = p.onEveryCPU(func(g int) { p.chase(g, chaseSteps) })
		an[k] = p.onEveryCPU(func(g int) { p.arith(g, arithSteps) })
	}
	med := func(ts [probeChunks]time.Duration) time.Duration {
		slices.Sort(ts[:])
		return ts[probeChunks/2]
	}
	return probeReading{med(c1), med(a1), med(cn), med(an)}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func (p *hostProbe) close() {
	_ = syscall.Munmap(p.mem)
}

// hostScale is the factor that turns a wall time measured between two
// probe readings, before and after, into a time at the nominal host
// speed: below 1 while the host runs slow, above 1 while it runs fast.
// It is the geometric mean of the four nominal-over-measured ratios,
// each loop taken as the mean of its two readings.
func hostScale(before, after probeReading) float64 {
	ratio := func(nominal, b, a time.Duration) float64 {
		return 2 * float64(nominal) / float64(b+a)
	}
	return math.Pow(ratio(chaseNominal, before.chase1, after.chase1)*
		ratio(arithNominal, before.arith1, after.arith1)*
		ratio(chaseNominal, before.chaseN, after.chaseN)*
		ratio(arithNominal, before.arithN, after.arithN), 0.25)
}
