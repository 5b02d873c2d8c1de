package des

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cbes/internal/raceflag"
)

// waitGoroutines polls until runtime.NumGoroutine() drops to want, so a
// coroutine that has just finished has time to be torn down.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcPanicReachesRun pins panic propagation: a panic in a process body
// (other than the kill sentinel) surfaces from Run/RunUntil on the caller's
// goroutine, also when the panicking process was resumed by another
// process, and leaves no coroutine behind.
func TestProcPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	drives := map[string]func(e *Engine){
		"Run":      func(e *Engine) { e.Run() },
		"RunUntil": func(e *Engine) { e.RunUntil(10 * Second) },
	}
	for name, drive := range drives {
		for _, nested := range []bool{false, true} {
			e := NewEngine()
			var sig Signal
			e.Spawn("boom", func(p *Proc) {
				if nested {
					sig.Wait(p)
				} else {
					p.Sleep(Second)
				}
				panic("boom")
			})
			if nested {
				// The waker resumes "boom" from inside its own body, so the
				// panic unwinds through the waker before reaching the engine.
				e.Spawn("waker", func(p *Proc) {
					p.Sleep(Second)
					sig.Wake()
				})
			}
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s nested=%v: recovered %v, want \"boom\"", name, nested, r)
					}
				}()
				drive(e)
				t.Fatalf("%s nested=%v: returned without the body's panic", name, nested)
			}()
			if e.Live() != 0 {
				t.Fatalf("%s nested=%v: Live = %d after the panic", name, nested, e.Live())
			}
			if e.Now() != Second {
				t.Fatalf("%s nested=%v: Now = %v, want 1s", name, nested, e.Now())
			}
			// The engine is no longer marked running, so it can be driven again.
			e.Run()
		}
	}
	waitGoroutines(t, base)
}

// TestRunUntilFromManyGoroutines drives one engine from 8 goroutines in
// turn, as a service does when RPC handlers advance a shared simulation
// under a mutex: a long-lived daemon keeps sleeping across the handoffs
// and wakes short-lived workers spawned by whichever goroutine holds the
// engine. After Shutdown no coroutine goroutine is left.
func TestRunUntilFromManyGoroutines(t *testing.T) {
	const drivers, rounds = 8, 25
	base := runtime.NumGoroutine()
	e := NewEngine()
	var ready Signal
	ticks, served := 0, 0
	e.Spawn("daemon", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
			ready.Broadcast()
		}
	})

	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				e.Spawn("worker", func(p *Proc) {
					ready.Wait(p)
					served++
				})
				e.RunUntil(e.Now() + Second)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if ticks != drivers*rounds {
		t.Fatalf("daemon ticked %d times, want %d", ticks, drivers*rounds)
	}
	if served != drivers*rounds {
		t.Fatalf("served %d workers, want %d", served, drivers*rounds)
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d before Shutdown, want only the daemon", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", e.Live())
	}
	waitGoroutines(t, base)
}

// TestSleepAllocatesNothing pins the zero-allocation context switch: once
// the event free list is warm, a Sleep (schedule the wake-up, park, resume)
// allocates nothing.
func TestSleepAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	e.RunUntil(Microsecond)
	allocs := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + Microsecond) })
	if allocs != 0 {
		t.Fatalf("Sleep allocates %v per switch, want 0", allocs)
	}
	e.Shutdown()
}
