package gpu

import (
	"testing"

	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// uarchTestVariants are the non-default microarchitecture cells the
// equivalence guards below run: each axis alone plus everything at once.
var uarchTestVariants = []struct {
	name string
	v    uarch.Variant
}{
	{"two-level", uarch.Variant{Scheduler: uarch.SchedTwoLevel}},
	{"lrr", uarch.Variant{Scheduler: uarch.SchedLRR}},
	{"sectored", uarch.Variant{L1: uarch.L1Sectored}},
	{"deflect", uarch.Variant{NoC: uarch.RouteDeflect}},
	{"iw2", uarch.Variant{IssueWidth: 2}},
	{"all", uarch.Variant{Scheduler: uarch.SchedTwoLevel, L1: uarch.L1Sectored, NoC: uarch.RouteDeflect, IssueWidth: 2}},
}

// TestEventLoopMatchesLegacyUarch extends the bit-identity contract to every
// microarchitecture variant: the event-driven and dense reference loops must
// agree bit for bit no matter which scheduler, L1 fill granularity, routing
// discipline or issue width is simulated.
func TestEventLoopMatchesLegacyUarch(t *testing.T) {
	for _, uc := range uarchTestVariants {
		t.Run(uc.name, func(t *testing.T) {
			cfg := testConfig(8)
			cfg.Uarch = uc.v
			for _, w := range []struct {
				name string
				mk   func() trace.Workload
			}{
				{"stream", func() trace.Workload { return streamWorkload(48, 4, 40) }},
				{"reuse", func() trace.Workload { return reuseWorkload(48, 4, 1<<16, 40, 2) }},
			} {
				ev, err := RunWithOptions(cfg, w.mk(), Options{})
				if err != nil {
					t.Fatalf("%s event loop: %v", w.name, err)
				}
				lg, err := RunWithOptions(cfg, w.mk(), Options{UseLegacyLoop: true})
				if err != nil {
					t.Fatalf("%s legacy loop: %v", w.name, err)
				}
				if ev != lg {
					t.Errorf("%s: stats diverge between loops\nevent  %+v\nlegacy %+v", w.name, ev, lg)
				}
			}
		})
	}
}

// TestOptionsUarchThreading pins the Options.Uarch override semantics: it
// applies when the config is silent, must not conflict with a non-zero
// cfg.Uarch, and changes simulated timing (a variant is not a no-op).
func TestOptionsUarchThreading(t *testing.T) {
	cfg := testConfig(8)
	viaOpt, err := RunWithOptions(cfg, streamWorkload(48, 4, 40), Options{Uarch: uarch.Variant{NoC: uarch.RouteDeflect}})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(8)
	cfg2.Uarch = uarch.Variant{NoC: uarch.RouteDeflect}
	viaCfg, err := RunWithOptions(cfg2, streamWorkload(48, 4, 40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viaOpt != viaCfg {
		t.Errorf("Options.Uarch and cfg.Uarch disagree\nopt %+v\ncfg %+v", viaOpt, viaCfg)
	}
	base, err := RunWithOptions(testConfig(8), streamWorkload(48, 4, 40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viaOpt == base {
		t.Error("deflect variant produced bit-identical stats to the crossbar baseline; variant not threaded")
	}
	cfg3 := testConfig(8)
	cfg3.Uarch = uarch.Variant{NoC: uarch.RouteXbar}
	if _, err := New(cfg3, streamWorkload(8, 4, 10), Options{Uarch: uarch.Variant{NoC: uarch.RouteDeflect}}); err == nil {
		t.Error("conflicting Options.Uarch and cfg.Uarch accepted")
	}
}
