// Service-shaped workload generation: long-running request-driven
// kernels for the slow-leak detector, as opposed to the short pipeline
// kernels Generate builds for the deadlock detectors.
//
// A service program runs a deterministic request source — a plain
// counter loop, so the same decision string and seed replay the same
// million requests — through one of three service skeletons (bounded
// handler-per-request, worker pool, fan-out/fan-in pipeline), all built
// from the same conc primitives the rest of the suite uses. The clean
// skeletons terminate under every schedule by construction. A leaky
// variant additionally strands one small goroutine group every
// LeakEvery requests, parameterized by the planted-bug templates plus
// two service-specific variants (pool exhaustion, handler abandonment),
// giving an exact census oracle: strands(R) = floor(R/LeakEvery) x
// StrandsPerPlant.
//
// Every planted group uses fresh, dedicated resources and goroutines
// named "leak-<kind>", and is shaped so the stranded goroutine's final
// park is either its first park or on a non-consuming block reason —
// which keeps it visible under the shared long-lived-worker suppression
// rule (trace.WorkerShaped) the leak detector applies.
package kernelgen

import (
	"fmt"

	"goat/internal/conc"
	"goat/internal/profile"
	"goat/internal/sim"
	"goat/internal/trace"
)

// ServiceShape selects the service skeleton.
type ServiceShape uint8

const (
	// ShapeHandler runs one goroutine per request, concurrency-bounded
	// by a semaphore channel, each handler checking a connection out of
	// a pool and back in.
	ShapeHandler ServiceShape = iota
	// ShapeWorkerPool runs a fixed pool of workers ranging over a jobs
	// channel, with a collector draining their results.
	ShapeWorkerPool
	// ShapePipeline runs requests through fan-out stages connected by
	// channels, fanned back in by main's final drain.
	ShapePipeline

	numServiceShapes
)

var serviceShapeNames = [...]string{"handler", "worker-pool", "pipeline"}

// String returns the shape name.
func (s ServiceShape) String() string {
	if int(s) < len(serviceShapeNames) {
		return serviceShapeNames[s]
	}
	return fmt.Sprintf("ServiceShape(%d)", uint8(s))
}

// LeakKind enumerates the slow-leak templates a service kernel can
// plant: the deterministic planted-bug templates re-parameterized as
// per-request strand sources, plus the two service-specific variants.
type LeakKind uint8

const (
	// LeakNone marks a clean service kernel.
	LeakNone LeakKind = iota
	// LeakDoubleLock strands one goroutine self-deadlocking a fresh mutex.
	LeakDoubleLock
	// LeakABBA strands two goroutines in a handshake-forced ABBA cycle:
	// the classic racy template made deterministic by exchanging ready
	// tokens before the crossing acquisitions, so both goroutines are
	// committed to the cycle under every schedule.
	LeakABBA
	// LeakSendNoRecv strands one goroutine sending where nobody receives.
	LeakSendNoRecv
	// LeakRecvNoSend strands one goroutine receiving where nobody sends.
	LeakRecvNoSend
	// LeakMissingClose strands one consumer draining a channel whose
	// producer (the request loop itself) forgot the close. The messages
	// are buffered before the consumer spawns, so its fatal park is its
	// first.
	LeakMissingClose
	// LeakLockedSend strands a sender holding a mutex its receiver needs.
	LeakLockedSend
	// LeakWgForgotDone strands a waiter on a waitgroup one worker of
	// which forgot its Done.
	LeakWgForgotDone
	// LeakOnceCycle strands two goroutines racing a Once whose every
	// body blocks: the winner parks inside the body, the loser parks on
	// the Once itself — two strands under every schedule.
	LeakOnceCycle
	// LeakPoolExhaust strands one goroutine checking a connection out of
	// an exhausted pool that will never be refilled.
	LeakPoolExhaust
	// LeakHandlerAbandon strands a backend call whose handler gave up
	// waiting: the callee's result send has no receiver left.
	LeakHandlerAbandon

	numLeakKinds
)

var leakKindNames = [...]string{
	"none", "double-lock", "abba", "send-no-recv", "recv-no-send",
	"missing-close", "locked-send", "wg-forgot-done", "once-cycle",
	"pool-exhaust", "handler-abandon",
}

// String returns the template name.
func (k LeakKind) String() string {
	if int(k) < len(leakKindNames) {
		return leakKindNames[k]
	}
	return fmt.Sprintf("LeakKind(%d)", uint8(k))
}

// Strands returns how many goroutines one planted occurrence of the
// template leaves stranded — the per-plant multiplier of the census
// oracle.
func (k LeakKind) Strands() int {
	switch k {
	case LeakNone:
		return 0
	case LeakABBA, LeakLockedSend, LeakOnceCycle:
		return 2
	default:
		return 1
	}
}

// ServiceProg describes one service kernel. The zero value is not
// meaningful; build one with GenerateService and adjust Requests /
// LeakEvery before Main if a campaign needs a different scale — the
// oracle methods recompute from the current fields.
type ServiceProg struct {
	Shape    ServiceShape
	Requests int // requests the deterministic source issues
	Workers  int // handler concurrency bound / pool width / stage fan-out
	Pool     int // connection-pool size (ShapeHandler)
	Stages   int // pipeline stages (ShapePipeline)
	ChanCap  int // buffering of the service channels

	LeakKind  LeakKind
	LeakEvery int // plant one leak group per LeakEvery requests (0 = never)

	// Timeline emits one req:start/req:done EvUserLog marker pair per
	// request (Aux carries the request id), the input of the profiling
	// plane's latency percentiles (profile.LatencySink). Off by default:
	// markers add events, which would shift every determinism golden.
	Timeline bool
}

// GenerateService decodes a decision string into a service kernel. Like
// Generate, the mapping is total and pure: every byte string decodes to
// a valid program, reads past the end answer zero. The default request
// count is kept small enough for fuzzing; soak campaigns override
// Requests (and LeakEvery) on the returned program.
func GenerateService(dec []byte) *ServiceProg {
	d := &decoder{buf: dec}
	p := &ServiceProg{
		Shape:    ServiceShape(d.intn(int(numServiceShapes))),
		Workers:  1 + d.intn(4),
		Pool:     1 + d.intn(3),
		Stages:   2 + d.intn(2),
		ChanCap:  d.intn(3),
		Requests: 32 + 8*d.intn(25), // 32..224
	}
	if d.flag() {
		p.LeakKind = LeakKind(1 + d.intn(int(numLeakKinds)-1))
		p.LeakEvery = 8 << d.intn(3) // 8, 16 or 32
	}
	return p
}

// Clean returns the leak-free twin: the identical service skeleton with
// no planted template.
func (p *ServiceProg) Clean() *ServiceProg {
	q := *p
	q.LeakKind = LeakNone
	q.LeakEvery = 0
	return &q
}

// Plants returns how many leak groups the request source plants.
func (p *ServiceProg) Plants() int {
	if p.LeakKind == LeakNone || p.LeakEvery <= 0 {
		return 0
	}
	return p.Requests / p.LeakEvery
}

// ExpectStrands is the exact census oracle: the number of goroutines
// guaranteed to be stranded once the run settles, as a function of the
// request count.
func (p *ServiceProg) ExpectStrands() int { return p.Plants() * p.LeakKind.Strands() }

// MinSteps returns a step budget generous enough for the whole service
// to run to completion (sim.Options.MaxSteps).
func (p *ServiceProg) MinSteps() int {
	return 4096 + 48*p.Requests + 64*p.Plants()
}

// String summarizes the kernel.
func (p *ServiceProg) String() string {
	base := fmt.Sprintf("%s service, %d requests, %d workers", p.Shape, p.Requests, p.Workers)
	if p.LeakKind == LeakNone {
		return "clean " + base
	}
	return fmt.Sprintf("leaky %s: %s every %d requests (expect %d strands)",
		base, p.LeakKind, p.LeakEvery, p.ExpectStrands())
}

// Check validates a settled execution against the oracle: exactly the
// planted goroutines leak, every one carrying the "leak-" name prefix.
func (p *ServiceProg) Check(r *sim.Result) error {
	if r.Outcome != sim.OutcomeOK && r.Outcome != sim.OutcomeLeak {
		return fmt.Errorf("service run ended %v, want a settled run", r.Outcome)
	}
	planted := 0
	for _, gi := range r.Leaked {
		if len(gi.Name) >= 5 && gi.Name[:5] == "leak-" {
			planted++
			continue
		}
		return fmt.Errorf("unplanted goroutine leaked: g%d %q blocked on %v", gi.ID, gi.Name, gi.Reason)
	}
	if want := p.ExpectStrands(); planted != want {
		return fmt.Errorf("planted strands = %d, oracle says %d", planted, want)
	}
	return nil
}

// Main returns the kernel entry point. The closure is reusable across
// runs; every invocation builds fresh resources.
func (p *ServiceProg) Main() func(*sim.G) {
	switch p.Shape {
	case ShapeWorkerPool:
		return p.workerPoolMain
	case ShapePipeline:
		return p.pipelineMain
	default:
		return p.handlerMain
	}
}

// mark emits one request-timeline marker when timelines are on. The
// marker travels the ordinary sink path, so latency derivation works
// under NoTrace campaigns exactly like the leak detector does.
func (p *ServiceProg) mark(g *sim.G, marker string, r int) {
	if !p.Timeline {
		return
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvUserLog, Str: marker, Aux: int64(r)})
}

// maybePlant strands one leak group when request r is a planting point.
func (p *ServiceProg) maybePlant(g *sim.G, r int) {
	if p.LeakKind == LeakNone || p.LeakEvery <= 0 || r%p.LeakEvery != p.LeakEvery-1 {
		return
	}
	plantServiceLeak(g, p.LeakKind, p.Pool)
}

// handlerMain: bounded handler-per-request with a connection pool.
func (p *ServiceProg) handlerMain(g *sim.G) {
	sem := conc.NewChan[int](g, p.Workers)
	conns := conc.NewChan[int](g, p.Pool)
	for i := 0; i < p.Pool; i++ {
		conns.Send(g, i)
	}
	wg := conc.NewWaitGroup(g)
	for r := 0; r < p.Requests; r++ {
		p.mark(g, profile.ReqStartMarker, r) // arrival: latency includes queueing
		sem.Send(g, 1)                       // acquire a concurrency slot; parks when saturated
		wg.Add(g, 1)
		g.Go("svc.handler", func(h *sim.G) {
			c, _ := conns.Recv(h) // checkout
			h.Yield()             // the request's work
			conns.Send(h, c)      // checkin
			sem.Recv(h)           // release the slot
			p.mark(h, profile.ReqDoneMarker, r)
			wg.Done(h)
		})
		p.maybePlant(g, r)
	}
	wg.Wait(g)
}

// workerPoolMain: a fixed worker pool over a jobs channel with a
// result collector.
func (p *ServiceProg) workerPoolMain(g *sim.G) {
	jobs := conc.NewChan[int](g, p.ChanCap)
	results := conc.NewChan[int](g, p.ChanCap)
	wg := conc.NewWaitGroup(g)
	wg.Add(g, p.Workers)
	for w := 0; w < p.Workers; w++ {
		g.Go("svc.worker", func(c *sim.G) {
			jobs.Range(c, func(j int) bool {
				results.Send(c, j)
				p.mark(c, profile.ReqDoneMarker, j) // done once the result is delivered
				return true
			})
			wg.Done(c)
		})
	}
	collected := conc.NewChan[int](g, 0)
	g.Go("svc.collector", func(c *sim.G) {
		n := 0
		results.Range(c, func(int) bool { n++; return true })
		collected.Send(c, n)
	})
	for r := 0; r < p.Requests; r++ {
		p.mark(g, profile.ReqStartMarker, r)
		jobs.Send(g, r)
		p.maybePlant(g, r)
	}
	jobs.Close(g)
	wg.Wait(g)       // all workers drained
	results.Close(g) // lets the collector finish
	collected.Recv(g)
}

// pipelineMain: fan-out stages connected by channels, fanned back in
// by main's drain; stage k+1's channel closes when stage k's fan-out
// finishes.
func (p *ServiceProg) pipelineMain(g *sim.G) {
	chans := make([]*conc.Chan[int], p.Stages+1)
	for i := range chans {
		chans[i] = conc.NewChan[int](g, p.ChanCap)
	}
	for s := 0; s < p.Stages; s++ {
		in, out := chans[s], chans[s+1]
		wg := conc.NewWaitGroup(g)
		wg.Add(g, p.Workers)
		for w := 0; w < p.Workers; w++ {
			g.Go("svc.stage", func(c *sim.G) {
				in.Range(c, func(v int) bool {
					out.Send(c, v+1)
					return true
				})
				wg.Done(c)
			})
		}
		g.Go("svc.closer", func(c *sim.G) {
			wg.Wait(c)
			out.Close(c)
		})
	}
	// Main drains the final stage while a source goroutine feeds the
	// first: feeding and draining from the same goroutine deadlocks the
	// moment the bounded stages back up.
	g.Go("svc.source", func(c *sim.G) {
		for r := 0; r < p.Requests; r++ {
			p.mark(c, profile.ReqStartMarker, r)
			chans[0].Send(c, r)
			p.maybePlant(c, r)
		}
		chans[0].Close(c)
	})
	// Each stage increments the value, so the drained value v belongs to
	// request v-Stages.
	chans[p.Stages].Range(g, func(v int) bool {
		p.mark(g, profile.ReqDoneMarker, v-p.Stages)
		return true
	})
}

// plantServiceLeak strands one leak group: fresh dedicated resources,
// goroutines named "leak-<kind>", and a final park that the worker
// suppression rule cannot hide (a first park, or a non-consuming block
// reason). Exactly LeakKind.Strands() goroutines never terminate; main
// never blocks here.
func plantServiceLeak(g *sim.G, kind LeakKind, pool int) {
	switch kind {
	case LeakDoubleLock:
		m := conc.NewMutex(g)
		g.Go("leak-double-lock", func(c *sim.G) {
			m.Lock(c)
			m.Lock(c) // BUG: self-deadlock
		})
	case LeakABBA:
		a, b := conc.NewMutex(g), conc.NewMutex(g)
		r1, r2 := conc.NewChan[int](g, 1), conc.NewChan[int](g, 1)
		g.Go("leak-abba", func(c *sim.G) {
			a.Lock(c)
			r1.Send(c, 1) // buffered: never parks
			r2.Recv(c)    // wait until the peer holds b
			b.Lock(c)     // BUG: cycle closed
		})
		g.Go("leak-abba", func(c *sim.G) {
			b.Lock(c)
			r2.Send(c, 1)
			r1.Recv(c)
			a.Lock(c)
		})
	case LeakSendNoRecv:
		ch := conc.NewChan[int](g, 0)
		g.Go("leak-send-no-recv", func(c *sim.G) {
			ch.Send(c, 1) // BUG: no receiver exists
		})
	case LeakRecvNoSend:
		ch := conc.NewChan[int](g, 0)
		g.Go("leak-recv-no-send", func(c *sim.G) {
			ch.Recv(c) // BUG: no sender exists
		})
	case LeakMissingClose:
		ch := conc.NewChan[int](g, 2)
		ch.Send(g, 1) // buffered before the consumer spawns:
		ch.Send(g, 2) // its fatal park is its first park
		g.Go("leak-missing-close", func(c *sim.G) {
			for { // BUG: the producer never closes
				if _, ok := ch.Recv(c); !ok {
					return
				}
			}
		})
	case LeakLockedSend:
		m := conc.NewMutex(g)
		ch := conc.NewChan[int](g, 0)
		g.Go("leak-locked-send", func(c *sim.G) {
			m.Lock(c)
			ch.Send(c, 1) // BUG: receiver needs m first
			m.Unlock(c)
		})
		g.Go("leak-locked-send", func(c *sim.G) {
			m.Lock(c)
			ch.Recv(c)
			m.Unlock(c)
		})
	case LeakWgForgotDone:
		wg := conc.NewWaitGroup(g)
		wg.Add(g, 2)
		g.Go("leak-wg-done", func(c *sim.G) {
			wg.Done(c) // the other Done never happens
		})
		g.Go("leak-wg-wait", func(c *sim.G) {
			wg.Wait(c) // BUG: parks forever on the missing Done
		})
	case LeakOnceCycle:
		o := conc.NewOnce(g)
		c1, c2 := conc.NewChan[int](g, 0), conc.NewChan[int](g, 0)
		g.Go("leak-once-cycle", func(c *sim.G) {
			o.Do(c, func() { c1.Recv(c) }) // winner parks in the body,
		})
		g.Go("leak-once-cycle", func(c *sim.G) {
			o.Do(c, func() { c2.Recv(c) }) // loser parks on the Once
		})
	case LeakPoolExhaust:
		drained := conc.NewChan[int](g, pool) // a pool nobody refills
		g.Go("leak-pool-exhaust", func(c *sim.G) {
			drained.Recv(c) // BUG: checkout from an exhausted pool
		})
	case LeakHandlerAbandon:
		result := conc.NewChan[int](g, 0)
		g.Go("leak-handler-abandon", func(c *sim.G) {
			c.Yield()         // the backend call
			result.Send(c, 1) // BUG: the handler stopped waiting
		})
		g.Go("svc.abandoner", func(c *sim.G) {
			c.Yield() // deadline expires; returns without receiving
		})
	}
}
