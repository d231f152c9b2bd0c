package modular

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestSchedulePanickingTask: a class check that panics stops neither the
// goroutine it ran on nor the other checks; once all have run, the first
// panic is raised again on the goroutine that called runAll, with the
// stack of the goroutine it happened on.
func TestSchedulePanickingTask(t *testing.T) {
	var ran atomic.Int32
	tasks := make([]func(), 8)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			if ran.Add(1); i%2 == 1 {
				panic("boom inside a task")
			}
		}
	}
	func() {
		defer func() {
			tp, _ := recover().(*TaskPanic)
			if tp == nil || tp.Value != "boom inside a task" || !strings.Contains(string(tp.Stack), "pool_test.go") {
				t.Errorf("runAll raised %+v, want the task's panic with its stack", tp)
			}
		}()
		runAll(3, tasks)
	}()
	if ran.Load() != 8 {
		t.Fatalf("%d of 8 tasks ran", ran.Load())
	}
	// With no workers asked for, one goroutine runs them all.
	ran.Store(0)
	func() {
		defer func() { recover() }()
		runAll(0, tasks)
	}()
	if ran.Load() != 8 {
		t.Fatalf("%d of 8 tasks ran on one goroutine", ran.Load())
	}
}
