package resilience

import "testing"

func TestCatchPanic(t *testing.T) {
	var got any
	func() {
		defer CatchPanic("test-goroutine", nil, func(v any) { got = v })()
		panic("isolated")
	}()
	if got != "isolated" {
		t.Fatalf("recovered value = %v", got)
	}
	// No panic: the hook must not fire.
	fired := false
	func() {
		defer CatchPanic("clean", nil, func(v any) { fired = true })()
	}()
	if fired {
		t.Fatal("onPanic fired without a panic")
	}
}
