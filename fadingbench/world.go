package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

// world is one set-up workload: its replicas, clients and sessions.
type world struct {
	p       *plan
	a, b    *replica // b is session-churn's token-resume replica
	clients []*client
	ids     []string // stream workloads: session id of each spec
	// next[c][i] is the block client c's next request on its i-th session
	// starts at; windows continue where the warm-up and earlier windows
	// stopped.
	next [][]uint64
	tr   atomic.Pointer[tracer]
	reqs atomic.Uint64
	// blocks and ops count the frames and operations the clients completed
	// in the current window, for its per-second slices.
	blocks, ops atomic.Int64
	// cap holds every frame the clients read, for the output check.
	cap *capture
	// specs is the verification table: every spec a captured frame names.
	mu    sync.Mutex
	specs map[int]*service.SessionSpec
}

// benchKeyring is the signing key the churn replicas share, and nothing
// else.
func benchKeyring() (*token.Keyring, error) {
	return token.NewKeyring(token.Key{ID: "bench", Secret: []byte("fadingbench-shared-signing-key-0123456789")})
}

// setup builds the workload's servers, clients and sessions and warms them
// until lazy set-up and the setup cache are done.
func setup(p *plan) (*world, error) {
	w := &world{p: p, cap: newCapture(p.format == service.FormatNDJSON), specs: make(map[int]*service.SessionSpec)}
	kr, err := benchKeyring()
	if err != nil {
		return nil, err
	}
	if w.a, err = startReplica(kr, &w.tr); err != nil {
		return nil, err
	}
	for range clients {
		w.clients = append(w.clients, newClient(w))
	}
	for i, s := range p.specs {
		w.specs[i] = s
	}
	if p.name == wlChurn {
		if w.b, err = startReplica(kr, &w.tr); err != nil {
			w.close()
			return nil, err
		}
		err = w.warmChurn()
	} else {
		err = w.warmStreams()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// warmStreams creates the sessions and reads every block of each once,
// split over the clients, so the timed windows find the output check's
// first copies already taken.
func (w *world) warmStreams() error {
	c0 := w.clients[0]
	for _, spec := range w.p.specs {
		id, _, err := c0.create(w.a.base, spec)
		if err != nil {
			return err
		}
		w.ids = append(w.ids, id)
	}
	for ci := range w.clients {
		w.next = append(w.next, append([]uint64(nil), w.p.starts[ci]...))
	}
	return w.parallel(func(ci int, c *client) error {
		for s := ci; s < len(w.p.specs); s += len(w.clients) {
			for from := 0; from < w.p.specs[s].Blocks; from += w.p.count {
				if err := c.stream(w.a.base, w.ids[s], "", s, uint64(from), w.p.count); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return nil
	})
}

// advance returns the start of client ci's next range on its i-th session
// and moves past it, wrapping at the end of the session.
func (w *world) advance(ci, i int) uint64 {
	from := w.next[ci][i]
	w.next[ci][i] = (from + uint64(w.p.count)) % uint64(w.p.specs[w.p.routes[ci][i]].Blocks)
	return from
}

// warmChurn runs every hot spec through both replicas once, directly and by
// token resume, so both setup caches hold the hot set, then a few fresh-spec
// operations to warm the miss path.
func (w *world) warmChurn() error {
	var ops []churnOp
	for i, s := range w.p.specs {
		ops = append(ops, churnOp{spec: s, key: i}, churnOp{spec: s, key: i, resume: true})
	}
	for i, s := range freshSpecs(newRNG(w.p.seed, 100), 4) {
		ops = append(ops, churnOp{spec: s, key: -1 - i})
	}
	return w.parallel(func(ci int, c *client) error {
		for i := ci; i < len(ops); i += len(w.clients) {
			if err := w.runOp(c, ops[i], time.Now()); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
}

// parallel runs f once per client, concurrently, and joins their errors.
func (w *world) parallel(f func(ci int, c *client) error) error {
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for ci, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = f(ci, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops the clients and replicas.
func (w *world) close() {
	for _, c := range w.clients {
		c.close()
	}
	if w.b != nil {
		w.b.close()
	}
	if w.a != nil {
		w.a.close()
	}
}

// runOp performs one session-churn operation due at due. While a timed
// window runs, its latency goes to the client's samples.
func (w *world) runOp(c *client, op churnOp, due time.Time) error {
	id, tok, err := c.create(w.a.base, op.spec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.specs[op.key] = op.spec
	w.mu.Unlock()
	base, bearer := w.a.base, ""
	if op.resume {
		base, bearer = w.b.base, tok
	}
	err = c.stream(base, id, bearer, op.key, 0, churnBlocks)
	if op.resume {
		// The resume replica adopts the session into its table when it has
		// room, and serves it unregistered otherwise.
		err = errors.Join(err, c.remove(w.b.base, id, true))
	}
	err = errors.Join(err, c.remove(w.a.base, id, false))
	if err == nil && c.smp != nil {
		c.smp.ops = append(c.smp.ops, ms(time.Since(due)))
		w.ops.Add(1)
	}
	return err
}

// window is what one timed window measured.
type window struct {
	smp      samples
	elapsed  time.Duration
	cpu      time.Duration
	ops      int // blocks on stream workloads, operations on session-churn
	peakHeap uint64
	// slices are the window's whole seconds, for the per-second medians.
	slices []slice
}

// slice is one second of a timed window: its CPU time, heap allocation,
// and the blocks and operations completed in it.
type slice struct {
	dur    time.Duration
	cpu    time.Duration
	alloc  uint64
	blocks int64
	ops    int64
}

// perSecond returns the median over the window's whole seconds of f.
func (w *window) perSecond(f func(s slice) float64) float64 {
	xs := make([]float64, len(w.slices))
	for i, s := range w.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

// runWindow drives the workload for d and returns its measurements. A
// failed operation is counted, not fatal. phase separates the windows of
// one run: session-churn draws a fresh schedule for each. onSample, when
// set, runs on every heap-sampling tick.
func (w *world) runWindow(d time.Duration, phase uint64, onSample func()) *window {
	for _, c := range w.clients {
		c.smp = &samples{}
	}
	var churn []churnOp
	if w.p.name == wlChurn {
		churn = churnSchedule(w.p, phase, churnRate, d)
	}
	w.blocks.Store(0)
	w.ops.Store(0)
	stop := make(chan struct{})
	metered := make(chan *window)
	go w.meter(stop, metered, onSample)
	cpu0 := cpuTime()
	start := time.Now()
	if w.p.name == wlChurn {
		w.churnWindow(churn, start)
	} else {
		w.streamWindow(start.Add(d))
	}
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	close(stop)
	out := <-metered
	out.elapsed, out.cpu = elapsed, cpu
	for _, c := range w.clients {
		out.smp.merge(c.smp)
		c.smp = nil
	}
	out.ops = out.smp.blocks
	if w.p.name == wlChurn {
		out.ops = len(churn)
	}
	return out
}

// streamWindow runs the closed-loop clients until the deadline: each sends
// its next range request as soon as the previous one completed.
func (w *world) streamWindow(deadline time.Time) {
	_ = w.parallel(func(ci int, c *client) error {
		route := w.p.routes[ci]
		last := time.Now()
		for k := 0; time.Now().Before(deadline); k++ {
			i := k % len(route)
			c.smp.lag = append(c.smp.lag, ms(time.Since(last)))
			sent := time.Now()
			err := c.stream(w.a.base, w.ids[route[i]], "", route[i], w.advance(ci, i), w.p.count)
			last = time.Now()
			if c.smp.count(err) {
				c.smp.ops = append(c.smp.ops, ms(last.Sub(sent)))
			}
		}
		return nil
	})
}

// churnWindow releases the scheduled operations at their due times to the
// connection workers, whatever the workers' progress (open loop).
func (w *world) churnWindow(ops []churnOp, start time.Time) {
	// Sized to the number of sends, so the scheduler never blocks.
	queue := make(chan churnOp, len(ops))
	lags := make([]float64, 0, len(ops))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.parallel(func(ci int, c *client) error {
			for op := range queue {
				c.smp.count(w.runOp(c, op, start.Add(op.at)))
			}
			return nil
		})
	}()
	for _, op := range ops {
		due := start.Add(op.at)
		time.Sleep(time.Until(due))
		lags = append(lags, ms(time.Since(due)))
		queue <- op
	}
	close(queue)
	wg.Wait()
	w.clients[0].smp.lag = append(w.clients[0].smp.lag, lags...)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes returns the heap bytes allocated since the process started.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapInUse returns the bytes of heap spans in use (runtime.MemStats
// HeapInuse).
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapSampleEvery is the heap-in-use sampling period of a timed window.
const heapSampleEvery = 10 * time.Millisecond

// meter samples heap in use every heapSampleEvery and closes a slice every
// second until stop closes; it then sends the peak and the whole slices. It
// also calls onSample, when set, on every tick.
func (w *world) meter(stop <-chan struct{}, out chan<- *window, onSample func()) {
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	type mark struct {
		at          time.Time
		cpu         time.Duration
		alloc       uint64
		blocks, ops int64
	}
	read := func() mark {
		return mark{time.Now(), cpuTime(), allocBytes(), w.blocks.Load(), w.ops.Load()}
	}
	res := &window{peakHeap: heapInUse()}
	last := read()
	for {
		select {
		case <-stop:
			res.peakHeap = max(res.peakHeap, heapInUse())
			out <- res
			return
		case <-t.C:
			res.peakHeap = max(res.peakHeap, heapInUse())
			if onSample != nil {
				onSample()
			}
			if time.Since(last.at) >= time.Second {
				m := read()
				res.slices = append(res.slices, slice{dur: m.at.Sub(last.at), cpu: m.cpu - last.cpu,
					alloc: m.alloc - last.alloc, blocks: m.blocks - last.blocks, ops: m.ops - last.ops})
				last = m
			}
		}
	}
}
