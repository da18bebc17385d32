package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers is the number of closed-loop users. It is a constant, not derived
// from the host: every Fractal step is a caller waiting for a reply, and the
// independent users are the workers.
const workers = 2

// numSlices cuts a pass into equal time slices; rate, latency and CPU
// metrics are computed per slice and the median slice is reported, so one
// noisy second moves a slice, not the result.
const numSlices = 5

// limit ends a pass: after dur, or after ops ops per worker (whichever is
// set). Runs are timed; tests use op counts so they do not depend on speed.
type limit struct {
	dur time.Duration
	ops int
}

// sliceRec is what one worker saw in one slice.
type sliceRec struct {
	latNs []int64 // successful ops
	ttpNs []int64 // first-contact: EnsureProtocol alone
	ops   int64   // attempted, successes and failures
	// usefulBytes are the bytes handed to the caller.
	usefulBytes int64
}

// workerRec is one worker's record of a pass.
type workerRec struct {
	slices [numSlices]sliceRec
	failed int64
	// perProto counts, by negotiated protocol, the bytes handed to the
	// caller [0] and what it took on the wire to deliver them [1].
	perProto map[string]*[2]int64
	firstErr error
}

// pass is the shared clock of one pass: workers ask it which slice an op
// that just completed belongs to and whether to stop.
type pass struct {
	lim      limit
	start    time.Time
	sliceDur time.Duration
	recs     []*workerRec
}

func newPass(lim limit) *pass {
	p := &pass{lim: lim, recs: make([]*workerRec, workers)}
	for i := range p.recs {
		p.recs[i] = &workerRec{perProto: map[string]*[2]int64{}}
	}
	p.sliceDur = lim.dur / numSlices
	return p
}

// done reports whether a worker that has completed n ops should stop.
func (p *pass) done(n int) bool {
	if p.lim.ops > 0 && n >= p.lim.ops {
		return true
	}
	return p.lim.dur > 0 && time.Since(p.start) >= p.lim.dur
}

// sliceOf maps a completion time to its slice. An op-bounded pass spreads
// ops over slices by index instead.
func (p *pass) sliceOf(end time.Time, n int) int {
	var s int
	if p.lim.dur > 0 {
		s = int(end.Sub(p.start) / p.sliceDur)
	} else {
		s = n * numSlices / p.lim.ops
	}
	if s >= numSlices {
		s = numSlices - 1
	}
	return s
}

// record files one op. n is the worker's op index.
func (p *pass) record(w int, n int, start, end time.Time, err error) *sliceRec {
	r := p.recs[w]
	s := &r.slices[p.sliceOf(end, n)]
	s.ops++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return s
	}
	s.latNs = append(s.latNs, end.Sub(start).Nanoseconds())
	return s
}

func (r *workerRec) addBytes(s *sliceRec, proto string, useful, wire int64) {
	s.usefulBytes += useful
	pp := r.perProto[proto]
	if pp == nil {
		pp = new([2]int64)
		r.perProto[proto] = pp
	}
	pp[0] += useful
	pp[1] += wire
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// passStats is what the clock-side sampler saw: CPU at every slice edge,
// the allocator before and after.
type passStats struct {
	wall        time.Duration
	cpuAtEdge   [numSlices + 1]int64
	before, aft runtime.MemStats
}

// run executes one pass: body(w) is the worker loop. CPU is sampled at each
// slice edge by this goroutine, which otherwise sleeps.
func (p *pass) run(body func(w int)) *passStats {
	st := &passStats{}
	runtime.GC()
	runtime.ReadMemStats(&st.before)
	var wg sync.WaitGroup
	finished := make(chan struct{})
	p.start = time.Now()
	st.cpuAtEdge[0] = cpuNs()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	edge := 1
	for p.lim.dur > 0 && edge < numSlices {
		timer := time.NewTimer(time.Until(p.start.Add(time.Duration(edge) * p.sliceDur)))
		select {
		case <-timer.C:
			st.cpuAtEdge[edge] = cpuNs()
			edge++
			continue
		case <-finished:
			timer.Stop()
		}
		break
	}
	<-finished
	st.wall = time.Since(p.start)
	for ; edge <= numSlices; edge++ {
		st.cpuAtEdge[edge] = cpuNs()
	}
	runtime.ReadMemStats(&st.aft)
	return st
}

// value is one reported number: the median slice, with the slices' range
// beside it as the spread, or a single figure where slices do not apply.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int64   `json:"samples,omitempty"`
}

func single(v float64) value { return value{Value: v, Min: v, Max: v} }

func ofSlices(vs []float64, samples int64) value {
	if len(vs) == 0 {
		return value{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return value{Value: median(s), Min: s[0], Max: s[len(s)-1], Samples: samples}
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile of a sorted slice, nearest-rank.
func percentile(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

func sortedCopy(a ...[]int64) []int64 {
	var n int
	for _, x := range a {
		n += len(x)
	}
	out := make([]int64, 0, n)
	for _, x := range a {
		out = append(out, x...)
	}
	slices.Sort(out)
	return out
}
