package harness

// Pins the deprecated setter wrappers to their functional-option twins:
// a setter call must leave the harness in exactly the state the option
// would have configured at New. These are the only in-tree setter call
// sites allowed by `make deprecated-gate`.

import (
	"testing"

	"gpuscale/internal/engine"
	"gpuscale/internal/obs"
)

func TestDeprecatedSettersMatchOptions(t *testing.T) {
	// SetParallel ≡ WithParallel, including the n <= 0 → NumCPU rule.
	for _, n := range []int{5, 1, -3} {
		viaSet := New()
		viaSet.SetParallel(n)
		gotSet, _ := viaSet.settings()
		gotOpt, _ := New(WithParallel(n)).settings()
		if gotSet != gotOpt {
			t.Errorf("SetParallel(%d) gave %d, WithParallel gave %d", n, gotSet, gotOpt)
		}
	}

	// SetObserver ≡ WithObserver (attach and detach).
	rec := obs.New()
	viaSet := New()
	viaSet.SetObserver(rec)
	if viaSet.observerRef() != New(WithObserver(rec)).observerRef() {
		t.Error("SetObserver and WithObserver attached different recorders")
	}
	viaSet.SetObserver(nil)
	if viaSet.observerRef() != nil {
		t.Error("SetObserver(nil) did not detach")
	}

	// SetProgress ≡ WithProgress: the attached callback must be invoked.
	var viaSetCalls, viaOptCalls int
	setH := New()
	setH.SetProgress(func(engine.Progress) { viaSetCalls++ })
	optH := New(WithProgress(func(engine.Progress) { viaOptCalls++ }))
	_, setFn := setH.settings()
	_, optFn := optH.settings()
	if setFn == nil || optFn == nil {
		t.Fatal("progress callback not attached")
	}
	setFn(engine.Progress{})
	optFn(engine.Progress{})
	if viaSetCalls != 1 || viaOptCalls != 1 {
		t.Errorf("callback invocations: set=%d opt=%d, want 1/1", viaSetCalls, viaOptCalls)
	}
}
