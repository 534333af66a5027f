// Package uarch defines microarchitecture variant configuration: the warp
// scheduling policy, L1 organisation, NoC routing discipline and SM issue
// width that a simulation models. A Variant is a first-class, result-relevant
// input — unlike host-side execution options (worker count, serving
// tier), changing any of its fields changes simulated statistics, so
// the canonical wire request keeps it in the cache-key hash (see
// docs/UARCH.md for the matrix, wire spelling and hash semantics).
//
// The zero Variant means "the paper's Table III baseline": GTO warp
// scheduling, line-grain L1, crossbar NoC, single issue. Normalize fills the
// explicit default spellings in; Canonical strips them back out so that a
// fully-default Variant and an absent one hash identically.
package uarch

import (
	"fmt"
	"strconv"
	"strings"
)

// Scheduler selects the warp scheduling policy.
type Scheduler string

const (
	// SchedGTO is Greedy-Then-Oldest (the paper's Table III policy): stay
	// on the current warp while it is ready, otherwise pick the oldest
	// ready warp. The default.
	SchedGTO Scheduler = "gto"
	// SchedLRR is loose round-robin: the ready warp that issued least
	// recently goes first.
	SchedLRR Scheduler = "lrr"
	// SchedTwoLevel is a fetch-group two-level scheduler: warps are
	// partitioned into fixed groups, scheduling round-robins within the
	// active group and only moves to the next group when the active one
	// has no ready warp (after Narasiman et al., MICRO'11, simplified).
	SchedTwoLevel Scheduler = "two-level"
)

// L1Mode selects the L1 data cache fill granularity.
type L1Mode string

const (
	// L1Line fills whole cache lines on a miss. The default.
	L1Line L1Mode = "line"
	// L1Sectored fills one 32-byte sector per miss: a tag hit on an
	// invalid sector is a sector miss that fetches only that sector, so
	// irregular access patterns spend less bandwidth but hit less often.
	L1Sectored L1Mode = "sectored"
)

// Routing selects the NoC routing discipline between the SMs and the LLC
// slices.
type Routing string

const (
	// RouteXbar is the paper's ideal crossbar: per-port and bisection
	// bandwidth servers, no deflection. The default.
	RouteXbar Routing = "xbar"
	// RouteDeflect is a first-order bufferless deflection-routed network:
	// a flit arriving at a busy port is deflected and re-circulates for a
	// hop latency (consuming extra bisection bandwidth) instead of
	// queueing (after the bufferless-NoC literature, simplified).
	RouteDeflect Routing = "bufferless-deflect"
)

// MaxIssueWidth bounds Variant.IssueWidth; wider SMs than this are outside
// the model's calibrated range.
const MaxIssueWidth = 8

// SectorBytes is the fill granularity of a sectored L1 (clamped to the line
// size when lines are smaller).
const SectorBytes = 32

// TwoLevelGroupSize is the fixed fetch-group width of the two-level
// scheduler: warp slot i belongs to group i/TwoLevelGroupSize.
const TwoLevelGroupSize = 8

// ConfidencePenalty is the multiplicative structural penalty the analytic
// tier applies to its confidence score when the requested variant is
// non-default: the phase-program model is calibrated against the baseline
// microarchitecture only, so a variant estimate is structurally blind and
// must fall below the auto-tier escalation gate (the penalty alone takes a
// perfect score of 1.0 to 0.40 < the 0.5 default threshold, forcing
// escalation to the cycle model).
const ConfidencePenalty = 0.40

// Variant is one microarchitecture point. The zero value is the baseline.
// Fields use their zero value to mean "default"; Normalize makes the
// defaults explicit, Canonical strips them back to zero.
type Variant struct {
	Scheduler  Scheduler `json:"scheduler,omitempty"`
	L1         L1Mode    `json:"l1,omitempty"`
	NoC        Routing   `json:"noc,omitempty"`
	IssueWidth int       `json:"issue_width,omitempty"` // 0 = 1
}

// Validate reports whether every field is either zero or one of the defined
// spellings, and the issue width is within the modelled range.
func (v Variant) Validate() error {
	switch v.Scheduler {
	case "", SchedGTO, SchedLRR, SchedTwoLevel:
	default:
		return fmt.Errorf("uarch: unknown scheduler %q (want gto, lrr or two-level)", v.Scheduler)
	}
	switch v.L1 {
	case "", L1Line, L1Sectored:
	default:
		return fmt.Errorf("uarch: unknown l1 mode %q (want line or sectored)", v.L1)
	}
	switch v.NoC {
	case "", RouteXbar, RouteDeflect:
	default:
		return fmt.Errorf("uarch: unknown noc routing %q (want xbar or bufferless-deflect)", v.NoC)
	}
	if v.IssueWidth < 0 || v.IssueWidth > MaxIssueWidth {
		return fmt.Errorf("uarch: issue width %d out of range [1,%d]", v.IssueWidth, MaxIssueWidth)
	}
	return nil
}

// Normalize returns v with every defaulted field spelled out: gto, line,
// xbar, issue width 1.
func (v Variant) Normalize() Variant {
	if v.Scheduler == "" {
		v.Scheduler = SchedGTO
	}
	if v.L1 == "" {
		v.L1 = L1Line
	}
	if v.NoC == "" {
		v.NoC = RouteXbar
	}
	if v.IssueWidth == 0 {
		v.IssueWidth = 1
	}
	return v
}

// Canonical returns v with every default-valued field stripped to zero, the
// form the canonical wire request hashes: an explicitly-default field and an
// absent one describe the same microarchitecture, so they must hash the
// same.
func (v Variant) Canonical() Variant {
	if v.Scheduler == SchedGTO {
		v.Scheduler = ""
	}
	if v.L1 == L1Line {
		v.L1 = ""
	}
	if v.NoC == RouteXbar {
		v.NoC = ""
	}
	if v.IssueWidth == 1 {
		v.IssueWidth = 0
	}
	return v
}

// IsDefault reports whether v describes the baseline microarchitecture
// (every field zero or explicitly spelling its default).
func (v Variant) IsDefault() bool {
	return v.Canonical() == Variant{}
}

// String renders the canonical comma-joined token form ParseVariant accepts;
// the baseline renders as "default".
func (v Variant) String() string {
	c := v.Canonical()
	var parts []string
	if c.Scheduler != "" {
		parts = append(parts, string(c.Scheduler))
	}
	if c.L1 != "" {
		parts = append(parts, string(c.L1))
	}
	if c.NoC != "" {
		parts = append(parts, string(c.NoC))
	}
	if c.IssueWidth != 0 {
		parts = append(parts, "iw="+strconv.Itoa(c.IssueWidth))
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

// ParseVariant parses the CLI spelling: a comma-separated list of
// unambiguous tokens — a scheduler name (gto, lrr, two-level), an L1 mode
// (line, sectored), a routing name (xbar, bufferless-deflect, or the
// shorthand "deflect") and/or an issue width ("iw=N") — in any order.
// Empty input and "default" both mean the baseline. Repeating a dimension
// is an error.
func ParseVariant(s string) (Variant, error) {
	var v Variant
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return v, nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == string(SchedGTO) || tok == string(SchedLRR) || tok == string(SchedTwoLevel):
			if v.Scheduler != "" {
				return Variant{}, fmt.Errorf("uarch: scheduler given twice (%q and %q)", v.Scheduler, tok)
			}
			v.Scheduler = Scheduler(tok)
		case tok == string(L1Line) || tok == string(L1Sectored):
			if v.L1 != "" {
				return Variant{}, fmt.Errorf("uarch: l1 mode given twice (%q and %q)", v.L1, tok)
			}
			v.L1 = L1Mode(tok)
		case tok == string(RouteXbar) || tok == string(RouteDeflect) || tok == "deflect":
			if v.NoC != "" {
				return Variant{}, fmt.Errorf("uarch: noc routing given twice (%q and %q)", v.NoC, tok)
			}
			if tok == "deflect" {
				tok = string(RouteDeflect)
			}
			v.NoC = Routing(tok)
		case strings.HasPrefix(tok, "iw="):
			if v.IssueWidth != 0 {
				return Variant{}, fmt.Errorf("uarch: issue width given twice")
			}
			n, err := strconv.Atoi(tok[len("iw="):])
			if err != nil || n < 1 || n > MaxIssueWidth {
				return Variant{}, fmt.Errorf("uarch: bad issue width %q (want iw=1..%d)", tok, MaxIssueWidth)
			}
			v.IssueWidth = n
		default:
			return Variant{}, fmt.Errorf("uarch: unknown token %q (want gto|lrr|two-level, line|sectored, xbar|bufferless-deflect, iw=N)", tok)
		}
	}
	if err := v.Validate(); err != nil {
		return Variant{}, err
	}
	return v, nil
}
