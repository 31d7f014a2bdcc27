package bench

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// speedProbe tracks how fast the machine runs while a benchmark runs.
// The benchmark shares its host with other tenants whose load slows
// every CPU-bound step of the daemon, by up to 2x for seconds at a time,
// so raw times from runs minutes apart differ by more than any change
// worth detecting. The probe times a fixed reference kernel, in the CPU
// time of its own locked thread, at a low duty cycle throughout the run;
// the kernel slows with the host, and a run's times divided by its
// slowdown are comparable with other runs'. The kernel is the
// benchmark's own code, but it shares the CPUs with the daemon, so a
// daemon that burns more CPU may slow it too. In an A/B against a daemon
// slowed by a fixed loop per snapshot (README.md) the scaled CPU per
// snapshot read 1.38x where the raw one read 1.39x, with the factor's
// same-seed ratio at a median 1.04x (0.93-1.09). Results keep the raw
// values and the factors beside the scaled values.
type speedProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

type speedSample struct {
	at  time.Time
	cpu time.Duration
}

const (
	// speedPeriod is the probe's cadence: the kernel takes ~50 µs, so
	// the probe costs about a quarter of a percent of one CPU.
	speedPeriod = 20 * time.Millisecond
	// refKernelCPU is the kernel's CPU time on an idle core of the
	// reference machine (2-vCPU 2.1 GHz Xeon VM): slowdown 1.
	refKernelCPU = 45 * time.Microsecond
	// speedTrim drops the slowest tenth of the samples, the ones an
	// interrupt or a context switch landed in.
	speedTrim = 0.1
)

// refData is the kernel's input: 128 KiB of coordinates, which fits in
// the L2 cache the daemon's hot loops share with other tenants.
var refData = func() []float64 {
	a := make([]float64, 1<<14)
	for i := range a {
		a[i] = float64(i*7919%1000) * 0.37
	}
	return a
}()

// refSink keeps the kernel's result live.
var refSink float64

// refKernel is a distance scan — math.Hypot over coordinate pairs, the
// shape of the classifier's nearest-neighbour search, the daemon's
// hottest loop — and returns the thread CPU time it took.
func refKernel() time.Duration {
	c0 := threadCPU()
	s := 0.0
	for i := 0; i+1 < len(refData); i += 2 {
		s += math.Hypot(refData[i]-3, refData[i+1]-5)
	}
	refSink += s
	return threadCPU() - c0
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID, which unlike the /proc
// counters is exact to the nanosecond for the running thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// startSpeedProbe starts sampling; Stop ends it.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The thread CPU clock only measures the kernel if the goroutine
		// stays on one thread for the whole call.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tk := time.NewTicker(speedPeriod)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
				d := refKernel()
				p.mu.Lock()
				p.samples = append(p.samples, speedSample{at: time.Now(), cpu: d})
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// Stop ends sampling and waits for the probe goroutine.
func (p *speedProbe) Stop() {
	close(p.stop)
	<-p.done
}

// slowdown returns the slowdown over the samples taken in [from, to).
func (p *speedProbe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	var d []time.Duration
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			d = append(d, s.cpu)
		}
	}
	p.mu.Unlock()
	return slowdownOf(d)
}

// slowdownOf returns the kernel's trimmed-mean CPU time over samples as
// a multiple of refKernelCPU; 1 without samples.
func slowdownOf(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	d := append([]time.Duration(nil), samples...)
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	d = d[:max(1, int(float64(len(d))*(1-speedTrim)))]
	sum := 0.0
	for _, x := range d {
		sum += float64(x)
	}
	return sum / float64(len(d)) / float64(refKernelCPU)
}
