package scheduler

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// payload is large enough that a pinned copy per slot would matter.
type payload [16 << 20]byte

// runAndWatch runs a task that captures a fresh payload through run,
// which returns once the task has finished, and hands back only a weak
// pointer to the payload.
//
//go:noinline
func runAndWatch(p *Pool, run func(p *Pool, task Task, ran <-chan struct{})) weak.Pointer[payload] {
	buf := new(payload)
	ran := make(chan struct{})
	run(p, func() { buf[0]++; close(ran) }, ran)
	return weak.Make(buf)
}

// TestFinishedTaskIsCollected checks that no queue keeps a finished task
// reachable, whichever path ran it: a deque slot that still holds the
// closure pins everything it captured until the ring wraps around.
func TestFinishedTaskIsCollected(t *testing.T) {
	noop := func() {}
	paths := []struct {
		name    string
		workers int
		run     func(p *Pool, task Task, ran <-chan struct{})
	}{
		{"owner pop", 1, func(p *Pool, task Task, ran <-chan struct{}) {
			// refill runs noop at once and pushes task, which the owner
			// then pops from its deque.
			p.SubmitBatch([]Task{noop, task})
			<-ran
		}},
		{"steal", 2, func(p *Pool, task Task, ran <-chan struct{}) {
			// The worker that refills parks in the blocker with task in
			// its deque; the blocker's Submit wakes the other worker,
			// which steals task.
			release := make(chan struct{})
			p.SubmitBatch([]Task{func() { p.Submit(noop); <-release }, task})
			<-ran
			close(release)
		}},
		{"stealInto", 2, func(p *Pool, task Task, ran <-chan struct{}) {
			// The victim's deque holds noop (oldest), task, noop: the
			// thief runs the first noop and moves task into its own
			// deque, then pops it there.
			release := make(chan struct{})
			p.SubmitBatch([]Task{func() { p.Submit(noop); <-release }, noop, task, noop})
			<-ran
			close(release)
		}},
		{"BlockOn helper", 1, func(p *Pool, task Task, ran <-chan struct{}) {
			// The only worker is blocked, so Await's helping loop steals
			// task from its deque.
			started, release := make(chan struct{}), make(chan struct{})
			p.SubmitBatch([]Task{func() { close(started); <-release }, task})
			<-started
			prom, fut := NewPromise[int](p)
			go func() { <-ran; prom.Complete(0) }()
			if _, err := fut.Await(); err != nil {
				t.Error(err)
			}
			close(release)
		}},
		{"injector", 1, func(p *Pool, task Task, ran <-chan struct{}) {
			p.Submit(task)
			<-ran
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			p := NewPool(path.workers)
			defer p.Close()
			wp := runAndWatch(p, path.run)
			deadline := time.Now().Add(2 * time.Second)
			for {
				runtime.GC()
				if wp.Value() == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("finished task's captured payload still reachable after 2s")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
