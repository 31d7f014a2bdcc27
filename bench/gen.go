package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Generator drives load from this process over a fixed set of
// connections, one sender goroutine each. It never runs more senders
// than the machine has CPUs: the daemon shares those CPUs, and a
// generator that oversubscribes them measures its own scheduling.
type Generator struct {
	conns int
}

// NewGenerator returns a generator with conns senders, refusing more
// than runtime.NumCPU().
func NewGenerator(conns int) (*Generator, error) {
	if conns < 1 || conns > runtime.NumCPU() {
		return nil, fmt.Errorf("generator: %d connections requested, want 1..%d (runtime.NumCPU)", conns, runtime.NumCPU())
	}
	return &Generator{conns: conns}, nil
}

// Conns returns the number of senders.
func (g *Generator) Conns() int { return g.conns }

// Schedule is one connection's open-loop work: events in due order and
// the function that sends event i.
type Schedule struct {
	Events []Event
	Send   func(ctx context.Context, i int) error
	// Done, if set, is called once the sender stops, whether it sent
	// every event or abandoned the rest.
	Done func()
}

// LoopStats is what an open or closed loop observed.
type LoopStats struct {
	// Latency holds, per kind, the recorded requests' latencies measured
	// from their due time when the sender was busy at that time, else
	// from the actual send (so the generator's own timer slack is not
	// charged to the daemon, but a stall is charged to every request
	// queued behind it).
	Latency [numKinds]Recorder
	// Late holds how late each recorded request left against its due
	// time when its sender was idle at that time: the generator's own
	// timer and scheduling delay, the run's validity check.
	Late Recorder
	// Sent counts requests sent per kind (recorded or not); Failed counts
	// the ones that returned an error, Abandoned the ones never sent
	// because their sender fell more than maxBehind behind.
	Sent      [numKinds]int64
	Failed    int64
	Abandoned int64
	Errors    []string
}

func (s *LoopStats) merge(o *LoopStats) {
	for k := range s.Latency {
		s.Latency[k].Merge(&o.Latency[k])
		s.Sent[k] += o.Sent[k]
	}
	s.Late.Merge(&o.Late)
	s.Failed += o.Failed
	s.Abandoned += o.Abandoned
	for _, e := range o.Errors {
		s.fail(e)
	}
}

// fail keeps the first few error messages.
func (s *LoopStats) fail(msg string) {
	if len(s.Errors) < 8 {
		s.Errors = append(s.Errors, msg)
	}
}

// maxBehind is how far a sender may fall behind its schedule before the
// rest of it is abandoned (and counted failed): past this the daemon is
// overloaded and the run measures a growing backlog, not the service.
const maxBehind = 5 * time.Second

// OpenLoop sends every scheduled event at its due time (from start),
// one sender per schedule, and waits for all senders. Events due before
// recordFrom are sent but not recorded. A sender that is still busy
// when its next event falls due sends it as soon as it is free; every
// event due in the loop is sent, so a backlog shows as latency.
func (g *Generator) OpenLoop(ctx context.Context, start time.Time, recordFrom time.Duration, scheds []Schedule) *LoopStats {
	if len(scheds) > g.conns {
		panic("generator: more schedules than connections")
	}
	per := make([]LoopStats, len(scheds))
	var wg sync.WaitGroup
	for c := range scheds {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, sc := &per[c], scheds[c]
			if sc.Done != nil {
				defer sc.Done()
			}
			for i, ev := range sc.Events {
				due := start.Add(ev.Due)
				now := time.Now()
				idle := now.Before(due)
				if idle {
					if !sleepUntil(ctx, due) {
						st.Abandoned += int64(len(sc.Events) - i)
						return
					}
				} else if now.Sub(due) > maxBehind || ctx.Err() != nil {
					st.Abandoned += int64(len(sc.Events) - i)
					st.fail(fmt.Sprintf("connection %d abandoned %d requests %v behind schedule", c, len(sc.Events)-i, now.Sub(due)))
					return
				}
				sent := time.Now()
				err := sc.Send(ctx, i)
				done := time.Now()
				st.Sent[ev.Kind]++
				if err != nil {
					st.Failed++
					st.fail(err.Error())
				}
				if ev.Due < recordFrom {
					continue
				}
				from := due
				if idle {
					from = sent
					st.Late.Add(sent.Sub(due))
				}
				st.Latency[ev.Kind].Add(done.Sub(from))
			}
		}(c)
	}
	wg.Wait()
	out := &LoopStats{}
	for c := range per {
		out.merge(&per[c])
	}
	return out
}

// PeakSlice is the closed loop's counting interval: short enough that
// most slices miss the daemon's once-a-second journal fsync, so their
// median is the rate between stalls.
const PeakSlice = 250 * time.Millisecond

// PeakStats is what a closed loop observed.
type PeakStats struct {
	LoopStats
	// Slices counts the snapshots acknowledged in each whole PeakSlice.
	Slices []int64
}

// SliceMedian returns the median per-slice acknowledgement rate in
// snapshots per second (0 without a whole slice).
func (p *PeakStats) SliceMedian() float64 {
	if len(p.Slices) == 0 {
		return 0
	}
	rates := make([]float64, len(p.Slices))
	for i, n := range p.Slices {
		rates[i] = float64(n) / PeakSlice.Seconds()
	}
	return median(rates)
}

// ClosedLoop runs one sender per function for dur, each calling its
// function back to back; a call returns how many snapshots it carried.
func (g *Generator) ClosedLoop(ctx context.Context, dur time.Duration, send []func(ctx context.Context) (int, error)) *PeakStats {
	if len(send) > g.conns {
		panic("generator: more senders than connections")
	}
	nslices := int(dur / PeakSlice)
	per := make([]LoopStats, len(send))
	counts := make([][]int64, len(send))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range send {
		counts[c] = make([]int64, nslices+1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n, err := send[c](ctx)
				per[c].Sent[KindIngest]++
				if err != nil {
					per[c].Failed++
					per[c].fail(err.Error())
					continue
				}
				counts[c][min(int(time.Since(start)/PeakSlice), nslices)] += int64(n)
			}
		}(c)
	}
	wg.Wait()
	out := &PeakStats{Slices: make([]int64, nslices)}
	for c := range per {
		out.merge(&per[c])
		for i, n := range counts[c][:nslices] {
			out.Slices[i] += n
		}
	}
	return out
}

// sleepUntil waits for t or ctx, reporting whether t was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
