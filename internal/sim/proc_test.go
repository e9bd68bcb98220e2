package sim

import (
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	s := New()
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		wake = p.Now()
	})
	s.RunAll()
	if wake != 42*Millisecond {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d live procs after completion", s.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	var got []string
	s.Spawn("a", func(p *Proc) {
		got = append(got, "a0")
		p.Sleep(10)
		got = append(got, "a10")
		p.Sleep(20)
		got = append(got, "a30")
	})
	s.Spawn("b", func(p *Proc) {
		got = append(got, "b0")
		p.Sleep(15)
		got = append(got, "b15")
	})
	s.RunAll()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		s := New()
		var got []string
		for i := 0; i < 10; i++ {
			name := string(rune('a' + i))
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(7)
					got = append(got, name)
				}
			})
		}
		s.RunAll()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSleepUntilAndYield(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("x", func(p *Proc) {
		p.SleepUntil(100)
		order = append(order, "x100")
		p.SleepUntil(50) // past: no-op
		if p.Now() != 100 {
			t.Errorf("SleepUntil past moved time to %v", p.Now())
		}
		p.Yield()
		order = append(order, "x-yield")
	})
	s.At(100, func() { order = append(order, "ev100") })
	s.RunAll()
	// ev100 was put on the calendar during setup (before the process ran and
	// scheduled its own wake-up), so at t=100 it has the smaller sequence
	// number and fires first.
	if order[0] != "ev100" || order[1] != "x100" || order[2] != "x-yield" {
		t.Fatalf("order = %v", order)
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	s := New()
	cleaned := false
	reached := false
	s.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(1 * Second)
		reached = true
	})
	s.Run(10 * Millisecond)
	s.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
	if reached {
		t.Fatal("killed process ran past its park point")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Shutdown", s.LiveProcs())
	}
}

func TestShutdownBeforeStart(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("never", func(p *Proc) { ran = true })
	// Don't run the calendar at all.
	s.Shutdown()
	s.RunAll()
	if ran {
		t.Fatal("process killed before start still ran")
	}
}

func TestWorkersReused(t *testing.T) {
	// Processes that finish hand their coroutine back for the next Spawn, so
	// a run creates only as many coroutines as it has live processes.
	idleCount := func() int {
		idle.Lock()
		defer idle.Unlock()
		return len(idle.ws)
	}
	s := New()
	s.Spawn("warm", func(p *Proc) {})
	s.RunAll()
	before := idleCount()
	if before == 0 {
		t.Fatal("a finished process did not return its worker")
	}
	for i := 0; i < 100; i++ {
		s.Spawn("short", func(p *Proc) { p.Sleep(1) })
		s.RunAll()
	}
	if got := idleCount(); got != before {
		t.Fatalf("idle workers %d after 100 sequential processes, want %d", got, before)
	}
}

func TestMailboxSendRecv(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p).(int))
		}
	})
	s.At(10, func() { mb.Send(1) })
	s.At(20, func() { mb.Send(2); mb.Send(3) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxBufferedBeforeRecv(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	mb.Send("early")
	var got any
	s.Spawn("r", func(p *Proc) { got = mb.Recv(p) })
	s.RunAll()
	if got != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxTimeout(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	var ok bool
	var at Time
	s.Spawn("r", func(p *Proc) {
		_, ok = mb.RecvTimeout(p, 50*Millisecond)
		at = p.Now()
	})
	s.RunAll()
	if ok {
		t.Fatal("RecvTimeout returned ok with no sender")
	}
	if at != 50*Millisecond {
		t.Fatalf("timed out at %v, want 50ms", at)
	}
}

func TestMailboxTimeoutBeatenBySend(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	var v any
	var ok bool
	s.Spawn("r", func(p *Proc) { v, ok = mb.RecvTimeout(p, 50*Millisecond) })
	s.At(10*Millisecond, func() { mb.Send(99) })
	s.RunAll()
	if !ok || v != 99 {
		t.Fatalf("got %v/%v, want 99/true", v, ok)
	}
	// The cancelled timer must not fire anything weird later.
	s.Run(1 * Second)
}

func TestMailboxFIFOWaiters(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			mb.Recv(p)
			order = append(order, name)
		})
	}
	s.At(10, func() { mb.Send(0); mb.Send(0); mb.Send(0) })
	s.RunAll()
	if order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("waiter order %v", order)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned ok")
	}
	mb.Send(7)
	if v, ok := mb.TryRecv(); !ok || v != 7 {
		t.Fatalf("TryRecv = %v/%v", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatal("mailbox not drained")
	}
}

func TestResourceBasic(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		r.Acquire(p, 0)
		order = append(order, "a-in")
		p.Sleep(100)
		r.Release()
		order = append(order, "a-out")
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		r.Acquire(p, 0)
		order = append(order, "b-in")
		p.Sleep(10)
		r.Release()
	})
	s.RunAll()
	if order[0] != "a-in" || order[1] != "a-out" || order[2] != "b-in" {
		t.Fatalf("order %v", order)
	}
}

func TestResourcePriority(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []string
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Sleep(100)
		r.Release()
	})
	// Queued while holder owns the server: low-prio first by arrival, then
	// high-prio should jump the queue.
	s.At(10, func() {
		s.Spawn("low", func(p *Proc) {
			r.Acquire(p, 5)
			order = append(order, "low")
			r.Release()
		})
	})
	s.At(20, func() {
		s.Spawn("high", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, "high")
			r.Release()
		})
	})
	s.RunAll()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("order %v, want [high low]", order)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	maxInUse := 0
	for i := 0; i < 5; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Acquire(p, 0)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(50)
			r.Release()
		})
	}
	s.RunAll()
	if maxInUse != 2 {
		t.Fatalf("max in use %d, want 2", maxInUse)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	s.Spawn("u", func(p *Proc) {
		r.Use(p, 0, 500*Millisecond)
	})
	s.Run(1 * Second)
	u := r.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
}

func TestResourceMeanWait(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	s.Spawn("a", func(p *Proc) { r.Use(p, 0, 100*Millisecond) })
	s.Spawn("b", func(p *Proc) { r.Use(p, 0, 10*Millisecond) })
	s.RunAll()
	// b waited ~100ms.
	if w := r.MeanWait(); w < 99*Millisecond || w > 101*Millisecond {
		t.Fatalf("mean wait %v, want ~100ms", w)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on idle resource did not panic")
		}
	}()
	s := New()
	NewResource(s, 1).Release()
}

func TestProcPanicPropagates(t *testing.T) {
	// A model panic inside a process reaches RunAll's caller, wrapped with
	// the process name and the simulated time.
	s := New()
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `process "bad" panicked at`) || !strings.Contains(msg, "boom") {
			t.Fatalf("recovered %q, want the process name, time and panic value", msg)
		}
	}()
	s.RunAll()
	t.Fatal("RunAll returned despite the process panic")
}

func TestShutdownWithParkingDefer(t *testing.T) {
	// A dying process whose deferred cleanup parks again must still unwind:
	// kill wakes it again, and it unwinds from the park inside the defer.
	s := New()
	ct := NewCountingTracer()
	s.SetTracer(ct)
	cleaned := false
	s.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		defer p.Sleep(1)
		p.Sleep(Second)
	})
	s.Run(10 * Millisecond)
	s.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Shutdown", s.LiveProcs())
	}
	if ct.Kills["p"] != 1 || ct.Ends["p"] != 1 {
		t.Fatalf("kills=%d ends=%d, want 1 and 1", ct.Kills["p"], ct.Ends["p"])
	}
}
