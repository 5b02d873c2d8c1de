// The module stays at go 1.22; this file opts into go1.23 for iter.Pull,
// so the package needs a go1.23 or newer toolchain.

//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a killed process.
type procKilled struct{}

// Proc is a simulated process: an iter.Pull coroutine that runs only while
// the engine resumes it. At most one Proc (or event callback) runs at a
// time; a Proc gives up control only inside blocking primitives such as
// Sleep, Park, or Signal.Wait. A panic in the body other than the kill
// sentinel propagates to whoever resumed the process, and from there out
// of Engine.Run or RunUntil.
type Proc struct {
	eng     *Engine
	name    string
	body    func(p *Proc)
	next    func() (struct{}, bool) // engine -> proc; false once the body ended
	stop    func()
	yield   func(struct{}) bool // proc -> engine
	done    bool
	parked  bool
	killed  bool
	started bool
}

// Name reports the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Done reports whether the process body has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a simulated process and schedules its body to start at the
// current simulated time. The body only runs while the engine hands it
// control, so no locking is needed between processes.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.procs++
	if e.live == nil {
		e.live = make(map[*Proc]struct{})
	}
	e.live[p] = struct{}{}
	e.ScheduleArg(0, startProc, p)
	return p
}

// startProc is the start event of a spawned process: it creates the
// coroutine and runs the body up to its first park.
func startProc(arg any) {
	p := arg.(*Proc)
	if p.done {
		return // killed by Shutdown before it ever started
	}
	p.started = true
	p.next, p.stop = iter.Pull(p.run)
	p.dispatch()
}

// run is the coroutine body: it runs the process body and retires the
// process when the body returns, is killed, or panics.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.done = true
		p.eng.procs--
		delete(p.eng.live, p)
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

// dispatch transfers control from the engine to the process and returns
// once the process parks again or exits. It must only be called from
// engine context (an event callback or another running process).
func (p *Proc) dispatch() {
	if p.done {
		panic(fmt.Sprintf("des: dispatch to finished proc %q", p.name))
	}
	if _, ok := p.next(); !ok {
		p.stop()
	}
}

// Park blocks the process until another event calls Unpark. It is the
// low-level primitive beneath Sleep and Signal.
func (p *Proc) Park() {
	p.parked = true
	p.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

// Unpark makes a parked process runnable and runs it immediately (still
// within the current simulated instant). It must be called from engine
// context — an event callback or another process that is about to park.
// Unparking a process that is not parked panics: it indicates a lost-wakeup
// bug in the caller.
func (p *Proc) Unpark() {
	if p.done {
		return // killed while an unpark event was already queued
	}
	if !p.parked {
		panic(fmt.Sprintf("des: Unpark of non-parked proc %q", p.name))
	}
	p.parked = false
	p.dispatch()
}

// unparkProc is the event form of Unpark, scheduled without a closure.
func unparkProc(arg any) { arg.(*Proc).Unpark() }

// UnparkLater schedules an Unpark after delay without running it inline.
func (p *Proc) UnparkLater(delay Time) *Event {
	return p.eng.ScheduleArg(delay, unparkProc, p)
}

// Sleep suspends the process for the given simulated duration (clamped to a
// minimum of zero; a zero-length sleep still yields to equal-time events).
func (p *Proc) Sleep(d Time) {
	p.UnparkLater(d)
	p.Park()
}

// Kill terminates a parked process: its stack unwinds (running deferred
// functions) and it never runs again. Killing a finished process is a no-op.
// Kill must be called from engine context and only on parked processes.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if !p.parked {
		panic(fmt.Sprintf("des: Kill of running proc %q", p.name))
	}
	p.parked = false
	p.dispatch()
}

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Shutdown kills every live parked process. Call it after RunUntil when a
// simulation ends with daemons still sleeping, so their coroutines do not
// leak. Processes currently holding pending wake-up events are killed too;
// their stale events become no-ops.
func (e *Engine) Shutdown() {
	for len(e.live) > 0 {
		var victim *Proc
		for p := range e.live {
			if p.parked || !p.started {
				victim = p
				break
			}
		}
		if victim == nil {
			panic("des: Shutdown with live unparked processes")
		}
		if !victim.started {
			// Its start event never fired: nothing to unwind.
			victim.done = true
			e.procs--
			delete(e.live, victim)
			continue
		}
		victim.Kill()
	}
}

// Live reports the number of processes that have been spawned and not yet
// finished.
func (e *Engine) Live() int { return e.procs }

// Signal is a waiting place for simulated processes: a condition-variable
// analogue. The zero value is ready to use.
type Signal struct {
	waiters []*Proc
}

// Wait parks the calling process until Wake or Broadcast releases it.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.Park()
}

// Waiting reports how many processes are parked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Wake releases the longest-waiting live process, if any, and reports
// whether a process was released. Processes killed while waiting are
// discarded silently.
func (s *Signal) Wake() bool {
	for len(s.waiters) > 0 {
		p := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		if p.done {
			continue
		}
		p.Unpark()
		return true
	}
	return false
}

// Broadcast releases all waiting processes in FIFO order.
func (s *Signal) Broadcast() {
	for s.Wake() {
	}
}
