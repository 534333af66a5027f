package main

// The output check run on every response: its body digest must equal the
// recorded one, simulate bodies on a golden-grid cell must equal that cell
// field for field, and cycle predict bodies' 8/16-SM scale-model IPCs must
// equal the golden strong cells. The golden comparisons are what anchor the
// recorded digests: a digest file written from a bad build fails them.

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"gpuscale"
)

// checker holds the reference data.
type checker struct {
	digests map[string]string         // digestKey → hex SHA-256 of the body
	golden  map[string]map[string]any // golden label → stats fields
}

// digestKey names one response body: the canonical request hash plus the
// tier, since an analytic and a cycle response share the request hash.
func digestKey(tier, hash string) string { return tier + ":" + hash }

// loadChecker reads the golden grid and, unless digestsPath is empty, the
// recorded digests.
func loadChecker(goldenPath, digestsPath string) (*checker, error) {
	c := &checker{digests: map[string]string{}, golden: map[string]map[string]any{}}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden grid: %w", err)
	}
	var cells []struct {
		Label string         `json:"label"`
		Sim   map[string]any `json:"sim"`
		MCM   map[string]any `json:"mcm"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, fmt.Errorf("parsing golden grid: %w", err)
	}
	for _, cell := range cells {
		if cell.Sim != nil {
			c.golden[cell.Label] = cell.Sim
		} else {
			c.golden[cell.Label] = cell.MCM
		}
	}
	if digestsPath == "" {
		return c, nil
	}
	raw, err = os.ReadFile(digestsPath)
	if err != nil {
		return nil, fmt.Errorf("reading recorded digests: %w", err)
	}
	if err := json.Unmarshal(raw, &c.digests); err != nil {
		return nil, fmt.Errorf("parsing recorded digests: %w", err)
	}
	return c, nil
}

// check returns nil when a successful response passes every applicable
// check.
func (c *checker) check(r *result) error {
	if r.Fail != "" {
		return errors.New(r.Fail)
	}
	want, ok := c.digests[digestKey(r.Tier, r.Hash)]
	if !ok {
		return fmt.Errorf("no recorded digest for %s response %s", r.Tier, r.Hash)
	}
	if got := hex.EncodeToString(r.Sum[:]); got != want {
		return fmt.Errorf("body digest %s, recorded %s", got, want)
	}
	return c.checkGolden(r.Req, r.Tier, r.Body)
}

// checkGolden compares a body against the golden grid where the grid holds
// the cell the request asks for.
func (c *checker) checkGolden(rq request, tier string, body []byte) error {
	req, err := gpuscale.ParseRequest(rq.Body)
	if err != nil {
		return err
	}
	switch {
	case rq.Op == gpuscale.OpSimulate:
		label := goldenLabel(req)
		want, ok := c.golden[label]
		if !ok {
			return nil
		}
		var resp struct {
			Stats    map[string]any `json:"stats"`
			MCMStats map[string]any `json:"mcm_stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("parsing simulate response: %w", err)
		}
		got := resp.Stats
		if req.Target.Chiplets > 0 {
			got = resp.MCMStats
		}
		for _, k := range sortedKeys(want) {
			if got[k] != want[k] {
				return fmt.Errorf("%s: field %s = %v, golden %v", label, k, got[k], want[k])
			}
		}
	case rq.Op == gpuscale.OpPredict && tier == gpuscale.TierCycle && isStrongBaseline(req):
		ipcs, err := scaleModelIPCs(body)
		if err != nil {
			return err
		}
		for i, n := range []int{8, 16} {
			label := fmt.Sprintf("strong/%s/%dsm", req.Workload.Bench, n)
			if want := c.golden[label]["IPC"]; ipcs[i] != want {
				return fmt.Errorf("%s: scale-model IPC %v, golden %v", label, ipcs[i], want)
			}
		}
	}
	return nil
}

// isStrongBaseline reports a predict request on a Table II benchmark with
// the baseline microarchitecture, whose scale models are golden cells.
func isStrongBaseline(req gpuscale.Request) bool {
	return !req.Workload.Weak && req.Target.Chiplets == 0 && (req.Options.Uarch == nil || req.Options.Uarch.Canonical() == gpuscale.UarchVariant{})
}

// goldenLabel names the golden cell a simulate request asks for ("" when it
// is not one the benchmark sends).
func goldenLabel(req gpuscale.Request) string {
	w := req.Workload
	uarch := ""
	if req.Options.Uarch != nil && req.Options.Uarch.String() != "default" {
		uarch = req.Options.Uarch.String()
	}
	switch {
	case req.Target.Chiplets > 0 && w.Weak && uarch == "":
		return fmt.Sprintf("chiplet-weak/%s/%dc", w.Bench, req.Target.Chiplets)
	case req.Target.Chiplets > 0 && uarch == "":
		return fmt.Sprintf("chiplet/%s/%dc", w.Bench, req.Target.Chiplets)
	case req.Target.Chiplets > 0:
		return fmt.Sprintf("uarch-chiplet/%s/%s/%dc", uarchLabel(uarch), w.Bench, req.Target.Chiplets)
	case w.Weak:
		return ""
	case uarch == "":
		return fmt.Sprintf("strong/%s/%dsm", w.Bench, req.Target.SMs)
	default:
		return fmt.Sprintf("uarch/%s/%s/%dsm", uarchLabel(uarch), w.Bench, req.Target.SMs)
	}
}

// uarchLabel maps a variant's String form to the golden grid's spelling.
func uarchLabel(s string) string {
	if s == "bufferless-deflect" {
		return "deflect"
	}
	return s
}

// scaleModelIPCs extracts the 8- and 16-SM scale-model IPCs of a predict
// body.
func scaleModelIPCs(body []byte) ([2]any, error) {
	var resp struct {
		ScaleModels []map[string]any `json:"scale_models"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return [2]any{}, fmt.Errorf("parsing predict response: %w", err)
	}
	if len(resp.ScaleModels) != 2 {
		return [2]any{}, fmt.Errorf("predict response has %d scale models, want 2", len(resp.ScaleModels))
	}
	return [2]any{resp.ScaleModels[0]["ipc"], resp.ScaleModels[1]["ipc"]}, nil
}

// analyticIPCError is the mean absolute error, in percent, of the analytic
// tier's 8/16-SM scale-model IPCs against the golden cycle IPCs, over the
// distinct analytic baseline-strong responses among rs (NaN when there are
// none).
func (c *checker) analyticIPCError(rs []result) (pct float64, cells int) {
	seen := map[string]bool{}
	var sum float64
	for i := range rs {
		r := &rs[i]
		if r.Fail != "" || r.Tier != gpuscale.TierAnalytic || seen[r.Hash] {
			continue
		}
		req, err := gpuscale.ParseRequest(r.Req.Body)
		if err != nil || !isStrongBaseline(req) {
			continue
		}
		ipcs, err := scaleModelIPCs(r.Body)
		if err != nil {
			continue
		}
		seen[r.Hash] = true
		for i, n := range []int{8, 16} {
			got, _ := ipcs[i].(float64)
			want, _ := c.golden[fmt.Sprintf("strong/%s/%dsm", req.Workload.Bench, n)]["IPC"].(float64)
			sum += math.Abs(got-want) / want
			cells++
		}
	}
	return 100 * sum / float64(cells), cells
}

// simInstructions is the number of warp instructions the timing
// simulations behind one computed response executed: read from the stats
// of a simulate body, and for a cycle predict on a Table II benchmark from
// the golden cells of its two scale models (the instruction stream of a
// strong-scaling benchmark does not depend on the system or the variant).
// Miss-rate sweeps are functional, not timing, simulations and count zero.
func (c *checker) simInstructions(r *result) float64 {
	switch r.Req.Op {
	case gpuscale.OpSimulate:
		var resp struct {
			Stats    *struct{ Instructions float64 } `json:"stats"`
			MCMStats *struct{ Instructions float64 } `json:"mcm_stats"`
		}
		if json.Unmarshal(r.Body, &resp) != nil {
			return 0
		}
		if resp.Stats != nil {
			return resp.Stats.Instructions
		}
		if resp.MCMStats != nil {
			return resp.MCMStats.Instructions
		}
	case gpuscale.OpPredict:
		if r.Tier != gpuscale.TierCycle {
			return 0
		}
		req, err := gpuscale.ParseRequest(r.Req.Body)
		if err != nil || req.Workload.Weak || req.Target.Chiplets > 0 {
			return 0
		}
		var n float64
		for _, sms := range []int{8, 16} {
			v, _ := c.golden[fmt.Sprintf("strong/%s/%dsm", req.Workload.Bench, sms)]["Instructions"].(float64)
			n += v
		}
		return n
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
