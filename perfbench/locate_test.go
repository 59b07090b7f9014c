package main

import (
	"sync"
	"testing"

	"locble/internal/core"
)

// TestLocatorConcurrentCallers: the locate callers share one locator —
// caller g's k-th op takes walk k·callers+g — so together they cover
// every walk, each walk's first fix is recorded once, the second pass
// repeats it bit for bit, and the fixes equal one caller's.
func TestLocatorConcurrentCallers(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ls := sp.Locate
	const walks, callers = 6, 2
	traces, err := genLocate(ls, 3, walks)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var o outcome
	l := newLocator(ls, traces, callers, &o)
	l.eng = eng
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < walks; k++ { // two passes over the walks
				if err := l.op(g, k); err != nil {
					t.Errorf("caller %d op %d: %v", g, k, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(o.problems) > 0 {
		t.Fatalf("oracle problems: %v", o.problems)
	}
	for i, seen := range l.seen {
		if !seen {
			t.Errorf("walk %d never located", i)
		}
	}
	if got, want := len(l.errs), walks*len(ls.Beacons); got != want {
		t.Errorf("%d first-pass fixes recorded, want %d", got, want)
	}

	one := newLocator(ls, traces, 1, &outcome{})
	one.eng = eng
	one.finishFirstPass()
	if got, want := l.digest(walks), one.digest(walks); got != want {
		t.Errorf("fixes of %d callers digest to %s, one caller's to %s", callers, got, want)
	}
}
