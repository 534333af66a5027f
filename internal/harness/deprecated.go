package harness

// This file holds the pre-options mutable configuration surface. Each
// setter now applies the corresponding functional option under the
// harness mutex; new code should pass options to New instead (see
// options.go), and `make deprecated-gate` rejects in-tree setter calls
// outside this file's tests.

import (
	"gpuscale/internal/engine"
	"gpuscale/internal/obs"
)

// SetParallel sets the sweep worker-pool size.
//
// Deprecated: configure at construction with New(WithParallel(n)).
func (h *Harness) SetParallel(n int) {
	h.apply(WithParallel(n))
}

// SetProgress attaches (or with nil detaches) a pre-warm progress callback.
//
// Deprecated: configure at construction with New(WithProgress(fn)).
func (h *Harness) SetProgress(fn func(engine.Progress)) {
	h.apply(WithProgress(fn))
}

// SetObserver attaches (or with nil detaches) an observability recorder
// for every simulation the harness runs from now on (memoised results
// that already ran are not re-observed).
//
// Deprecated: configure at construction with New(WithObserver(rec)).
func (h *Harness) SetObserver(rec *obs.Recorder) {
	h.apply(WithObserver(rec))
}

// apply runs one option under the harness mutex, for the setters above —
// unlike New, a setter may race with concurrent readers.
func (h *Harness) apply(opt Option) {
	h.mu.Lock()
	defer h.mu.Unlock()
	opt(h)
}
