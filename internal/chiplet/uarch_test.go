package chiplet

import (
	"testing"

	"gpuscale/internal/uarch"
)

// chipletUarchVariants are the non-default microarchitecture cells the MCM
// equivalence guards run: each axis alone plus everything at once.
var chipletUarchVariants = []struct {
	name string
	v    uarch.Variant
}{
	{"two-level", uarch.Variant{Scheduler: uarch.SchedTwoLevel}},
	{"sectored", uarch.Variant{L1: uarch.L1Sectored}},
	{"deflect", uarch.Variant{NoC: uarch.RouteDeflect}},
	{"all", uarch.Variant{Scheduler: uarch.SchedTwoLevel, L1: uarch.L1Sectored, NoC: uarch.RouteDeflect, IssueWidth: 2}},
}

// TestEventLoopMatchesLegacyUarch extends the MCM bit-identity contract to
// every microarchitecture variant: event-driven and dense reference loops
// must agree bit for bit under each.
func TestEventLoopMatchesLegacyUarch(t *testing.T) {
	for _, uc := range chipletUarchVariants {
		t.Run(uc.name, func(t *testing.T) {
			cfg := smallMCM(2, 4)
			cfg.Chiplet.Uarch = uc.v
			run := func(opt Options) Stats {
				t.Helper()
				s, err := New(cfg, streamWorkload(32, 2, 30), opt)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			ev := run(Options{})
			lg := run(Options{UseLegacyLoop: true})
			if ev != lg {
				t.Errorf("stats diverge between loops\nevent  %+v\nlegacy %+v", ev, lg)
			}
		})
	}
}

// TestChipletOptionsUarch pins the Options.Uarch override: equal to setting
// cfg.Chiplet.Uarch, rejected when it conflicts with one.
func TestChipletOptionsUarch(t *testing.T) {
	v := uarch.Variant{NoC: uarch.RouteDeflect}
	cfg := smallMCM(2, 4)
	s1, err := New(cfg, streamWorkload(32, 2, 30), Options{Uarch: v})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallMCM(2, 4)
	cfg2.Chiplet.Uarch = v
	s2, err := New(cfg2, streamWorkload(32, 2, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("Options.Uarch and cfg.Chiplet.Uarch disagree\nopt %+v\ncfg %+v", st1, st2)
	}
	cfg3 := smallMCM(2, 4)
	cfg3.Chiplet.Uarch = uarch.Variant{NoC: uarch.RouteXbar}
	if _, err := New(cfg3, streamWorkload(32, 2, 30), Options{Uarch: v}); err == nil {
		t.Error("conflicting Options.Uarch and cfg.Chiplet.Uarch accepted")
	}
}
