package main

// The traced pass. No code inside the program is instrumented: the traced
// pass serves the same requests through tracedHandler, a copy of the
// server's request path (internal/server handle, servePredictFast and the
// evaluator) written here from the layers' exported functions, with a span
// around every call into a layer. The copy must answer byte-for-byte like
// the real server; run compares every traced body with the untraced one.
// Below gpu and chiplet the layers are reached only from inside the run
// loops, so their share comes from a CPU profile of the traced pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuscale"
	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/harness"
	"gpuscale/internal/obs"
	"gpuscale/internal/server"
)

// Headers the traced client adds so the handler can parent its spans.
const (
	hdrRequest = "X-Bench-Request"
	hdrSpan    = "X-Bench-Span"
)

// span is one timed call. Req groups the spans of one request; Parent is
// the span that made the call (0 for a request's round trip). Arg carries
// a call's outcome where one matters (the store level that answered).
type span struct {
	ID, Parent int64
	Req        int
	Name       string // "<layer>.<call>"
	Arg        string
	Start, End time.Time
}

func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// spanRef identifies the innermost open span of a request.
type spanRef struct {
	req int
	id  int64
}

// start opens a span as a child of the one in ctx; end closes it with an
// optional outcome.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func(arg string)) {
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.newID()
	begin := time.Now()
	return context.WithValue(ctx, spanKey{}, spanRef{parent.req, id}), func(arg string) {
		t.record(span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Arg: arg, Start: begin, End: time.Now()})
	}
}

// simRecord is one timing simulation the traced pass ran.
type simRecord struct {
	mono *gpuscale.SimStats
	mcm  *gpuscale.MCMStats
	wall time.Duration
	obs  obs.MetricsSnapshot // MCM only: the counts MCMStats lacks
}

// tracedHandler serves /v1 requests like internal/server's handler, with
// spans. Per-tenant admission is left out: no workload comes near the
// tenant cap, which server.rejected shows on the real server.
type tracedHandler struct {
	tr        *tracer
	store     *harness.ResultStore
	intake    *engine.Intake
	threshold float64

	mu        sync.Mutex
	sims      []simRecord
	mrcBench  []string
	firstSeen map[string]bool
}

func newTracedHandler(tr *tracer, store string, opt server.Options) (*tracedHandler, error) {
	rs, err := harness.NewResultStore(store, opt.MemoBytes)
	if err != nil {
		return nil, err
	}
	return &tracedHandler{
		tr:        tr,
		store:     rs,
		intake:    engine.NewIntake(engine.IntakeOptions{Workers: opt.Workers, Linger: opt.BatchLinger}),
		threshold: opt.ConfidenceThreshold,
		firstSeen: map[string]bool{},
	}, nil
}

func (h *tracedHandler) Close() { h.intake.Close() }

// call runs f inside a span and returns f's error.
func (h *tracedHandler) call(ctx context.Context, name string, f func(context.Context) error) error {
	ctx, end := h.tr.start(ctx, name)
	err := f(ctx)
	end("")
	return err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID, _ := strconv.Atoi(r.Header.Get(hdrRequest))
	root, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	ctx, end := h.tr.start(context.WithValue(r.Context(), spanKey{}, spanRef{reqID, root}), "server.handle")
	defer end("")

	op := strings.TrimPrefix(r.URL.Path, "/v1/")
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req gpuscale.Request
	if err := h.call(ctx, "gpuscale.ParseRequest", func(context.Context) (err error) {
		req, err = gpuscale.ParseRequest(data)
		return err
	}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Op == "" {
		req.Op = op
	} else if req.Op != op {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request op %q does not match endpoint /v1/%s", req.Op, op))
		return
	}
	var hash string
	if err := h.call(ctx, "gpuscale.Canonicalize", func(context.Context) (err error) {
		_, hash, err = gpuscale.Canonicalize(req)
		return err
	}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Op == gpuscale.OpPredict && (req.Options.Tier == gpuscale.TierAnalytic || req.Options.Tier == gpuscale.TierAuto) {
		if h.servePredictFast(ctx, w, req, hash) {
			return
		}
	}
	body, src, err := h.storeDo(ctx, hash, func(ctx context.Context) ([]byte, error) {
		return h.evaluate(ctx, req, hash)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, hash, gpuscale.TierCycle, src, body)
}

// storeDo is ResultStore.Do inside a span that records the answering level.
func (h *tracedHandler) storeDo(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, harness.StoreSource, error) {
	ctx, end := h.tr.start(ctx, "harness.Do")
	body, src, err := h.store.Do(ctx, key, func() ([]byte, error) { return compute(ctx) })
	end(string(src))
	return body, src, err
}

// servePredictFast mirrors the server's analytic tier; false means an auto
// request escalates to the cycle pipeline.
func (h *tracedHandler) servePredictFast(ctx context.Context, w http.ResponseWriter, req gpuscale.Request, hash string) bool {
	if req.Options.Tier == gpuscale.TierAuto {
		_, end := h.tr.start(ctx, "harness.Lookup")
		body, src, ok := h.store.Lookup(hash)
		end(string(src))
		if ok {
			writeBody(w, hash, gpuscale.TierCycle, src, body)
			return true
		}
	}
	h.mu.Lock()
	first := !h.firstSeen[hash]
	h.firstSeen[hash] = true
	h.mu.Unlock()
	_, end := h.tr.start(ctx, "analytic.PredictAnalytic")
	ap, err := gpuscale.PredictAnalytic(req)
	if first {
		end("first")
	} else {
		end("")
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return true
	}
	if req.Options.Tier == gpuscale.TierAuto && ap.Confidence < h.threshold {
		return false
	}
	body, src, err := h.storeDo(ctx, gpuscale.AnalyticCacheKey(hash), func(ctx context.Context) ([]byte, error) {
		return h.marshalAnalytic(ctx, ap, req, hash)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return true
	}
	writeBody(w, hash, gpuscale.TierAnalytic, src, body)
	return true
}

func writeBody(w http.ResponseWriter, hash, tier string, src harness.StoreSource, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Hash", hash)
	w.Header().Set("X-Cache", string(src))
	w.Header().Set("X-Tier", tier)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(server.ErrorResponse{Error: err.Error()})
}

// encode is the response's JSON encode, in the server layer.
func (h *tracedHandler) encode(ctx context.Context, v any) ([]byte, error) {
	var out []byte
	err := h.call(ctx, "server.encode", func(context.Context) (err error) {
		out, err = json.Marshal(v)
		return err
	})
	return out, err
}

func (h *tracedHandler) evaluate(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	switch req.Op {
	case gpuscale.OpSimulate:
		return h.evalSimulate(ctx, req, hash)
	case gpuscale.OpPredict:
		if req.Target.Chiplets > 0 {
			return h.evalPredictMCM(ctx, req, hash)
		}
		return h.evalPredict(ctx, req, hash)
	case gpuscale.OpMRC:
		w, err := req.Workload.Resolve(0)
		if err != nil {
			return nil, err
		}
		curve, err := h.missRateCurve(ctx, req.Workload.Bench, w)
		if err != nil {
			return nil, err
		}
		return h.encode(ctx, server.MRCResponse{RequestHash: hash, Op: req.Op, Workload: w.Name(), Points: curve.Points})
	}
	return nil, fmt.Errorf("unknown op %q", req.Op)
}

func (h *tracedHandler) missRateCurve(ctx context.Context, bench string, w gpuscale.Workload) (gpuscale.Curve, error) {
	var curve gpuscale.Curve
	err := h.call(ctx, "mrc.MissRateCurve", func(context.Context) (err error) {
		curve, err = gpuscale.MissRateCurve(w, gpuscale.StandardConfigs())
		return err
	})
	h.mu.Lock()
	h.mrcBench = append(h.mrcBench, bench)
	h.mu.Unlock()
	return curve, err
}

// submit runs one monolithic job through the intake. The job's own
// simulation time (Result.Wall) becomes a gpu span closing when Submit
// returns; the rest of the Submit span is intake wait.
func (h *tracedHandler) submit(ctx context.Context, job gpuscale.Job) gpuscale.JobResult {
	sctx, end := h.tr.start(ctx, "engine.Submit")
	res := h.intake.Submit(sctx, job)
	done := time.Now()
	end("")
	if res.Err == nil {
		ref := sctx.Value(spanKey{}).(spanRef)
		h.tr.record(span{ID: h.tr.newID(), Parent: ref.id, Req: ref.req, Name: "gpu.SimulateContext",
			Start: done.Add(-res.Wall), End: done})
		st := res.Stats
		h.mu.Lock()
		h.sims = append(h.sims, simRecord{mono: &st, wall: res.Wall})
		h.mu.Unlock()
	}
	return res
}

func (h *tracedHandler) simulateMCM(ctx context.Context, cfg gpuscale.ChipletConfig, w gpuscale.Workload, opts ...gpuscale.SimOption) (gpuscale.MCMStats, error) {
	rec := gpuscale.NewObserver()
	_, end := h.tr.start(ctx, "chiplet.SimulateMCMContext")
	begin := time.Now()
	st, err := gpuscale.SimulateMCMContext(ctx, cfg, w, append(opts, gpuscale.WithObserver(rec))...)
	wall := time.Since(begin)
	end("")
	if err == nil {
		h.mu.Lock()
		h.sims = append(h.sims, simRecord{mcm: &st, wall: wall, obs: rec.Registry().Snapshot()})
		h.mu.Unlock()
	}
	return st, err
}

func (h *tracedHandler) evalSimulate(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	tgt, err := req.ResolveSimulation()
	if err != nil {
		return nil, err
	}
	resp := server.SimulateResponse{RequestHash: hash, Op: req.Op, Workload: tgt.Workload.Name()}
	if tgt.MCM != nil {
		resp.Config = tgt.MCM.Name
		st, err := h.simulateMCM(ctx, *tgt.MCM, tgt.Workload, tgt.Options...)
		if err != nil {
			return nil, err
		}
		resp.MCMStats = &st
		return h.encode(ctx, resp)
	}
	resp.Config = tgt.System.Name
	var o gpuscale.SimOptions
	for _, fn := range tgt.Options {
		fn(&o)
	}
	r := h.submit(ctx, gpuscale.Job{Config: *tgt.System, Kernels: []gpuscale.Workload{tgt.Workload}, Options: o})
	if r.Err != nil {
		return nil, r.Err
	}
	resp.Stats = &r.Stats
	return h.encode(ctx, resp)
}

func (h *tracedHandler) evalPredict(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	sizes := config.StandardSizes
	base := gpuscale.Baseline128()
	if req.Options.Uarch != nil {
		base.Uarch = *req.Options.Uarch
	}
	results := make([]gpuscale.JobResult, 2)
	var wg sync.WaitGroup
	for i, n := range sizes[:2] {
		w, err := req.Workload.Resolve(n)
		if err != nil {
			return nil, err
		}
		job := gpuscale.NewJob(gpuscale.MustScale(base, n), w)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = h.submit(ctx, job)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("simulating scale model %d: %w", i, r.Err)
		}
	}
	small, large := results[0].Stats, results[1].Stats
	fsizes := floatSizes(sizes)
	in := gpuscale.PredictionInput{Sizes: fsizes, SmallIPC: small.IPC, LargeIPC: large.IPC}
	resp := server.PredictResponse{
		RequestHash:      hash,
		Op:               req.Op,
		Workload:         req.Workload.Bench,
		ScaleModels:      []server.ScaleModelPoint{{Size: fsizes[0], IPC: small.IPC}, {Size: fsizes[1], IPC: large.IPC}},
		CorrectionFactor: gpuscale.CorrectionFactor(fsizes[0], small.IPC, fsizes[1], large.IPC),
	}
	if req.Workload.Weak {
		resp.Mode, in.Mode = "weak", gpuscale.WeakScaling
	} else {
		resp.Mode, in.Mode = "strong", gpuscale.StrongScaling
		w, err := req.Workload.Resolve(0)
		if err != nil {
			return nil, err
		}
		curve, err := h.missRateCurve(ctx, req.Workload.Bench, w)
		if err != nil {
			return nil, err
		}
		in.MPKI = curve.MPKIs()
		in.FMemLarge = large.FMem
		resp.MPKI = in.MPKI
	}
	preds, err := h.finishPredictions(ctx, in)
	if err != nil {
		return nil, err
	}
	resp.Predictions = preds
	return h.encode(ctx, resp)
}

func (h *tracedHandler) evalPredictMCM(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	base := gpuscale.Target16Chiplet()
	if req.Options.Uarch != nil {
		base.Chiplet.Uarch = *req.Options.Uarch
	}
	sizes := config.ChipletStandardSizes
	stats := make([]gpuscale.MCMStats, 2)
	for i, n := range sizes[:2] {
		cfg, err := gpuscale.ScaleChiplets(base, n)
		if err != nil {
			return nil, err
		}
		w, err := req.Workload.Resolve(cfg.TotalSMs())
		if err != nil {
			return nil, err
		}
		if stats[i], err = h.simulateMCM(ctx, cfg, w, gpuscale.WithShards(0)); err != nil {
			return nil, err
		}
	}
	small, large := stats[0], stats[1]
	fsizes := floatSizes(sizes)
	preds, err := h.finishPredictions(ctx, gpuscale.PredictionInput{
		Sizes: fsizes, SmallIPC: small.IPC, LargeIPC: large.IPC, Mode: gpuscale.WeakScaling,
	})
	if err != nil {
		return nil, err
	}
	return h.encode(ctx, server.PredictResponse{
		RequestHash:      hash,
		Op:               req.Op,
		Workload:         req.Workload.Bench,
		Mode:             "weak",
		MCM:              true,
		ScaleModels:      []server.ScaleModelPoint{{Size: fsizes[0], IPC: small.IPC}, {Size: fsizes[1], IPC: large.IPC}},
		CorrectionFactor: gpuscale.CorrectionFactor(fsizes[0], small.IPC, fsizes[1], large.IPC),
		Predictions:      preds,
	})
}

func (h *tracedHandler) marshalAnalytic(ctx context.Context, ap gpuscale.AnalyticPrediction, req gpuscale.Request, hash string) ([]byte, error) {
	in := ap.Input
	preds, err := h.finishPredictions(ctx, in)
	if err != nil {
		return nil, err
	}
	resp := server.PredictResponse{
		RequestHash:      hash,
		Op:               req.Op,
		Workload:         req.Workload.Bench,
		MCM:              ap.MCM,
		ScaleModels:      []server.ScaleModelPoint{{Size: in.Sizes[0], IPC: in.SmallIPC}, {Size: in.Sizes[1], IPC: in.LargeIPC}},
		CorrectionFactor: gpuscale.CorrectionFactor(in.Sizes[0], in.SmallIPC, in.Sizes[1], in.LargeIPC),
		MPKI:             in.MPKI,
		Predictions:      preds,
		Tier:             gpuscale.TierAnalytic,
		Confidence:       ap.Confidence,
	}
	resp.Mode = "strong"
	if in.Mode == gpuscale.WeakScaling {
		resp.Mode = "weak"
	}
	return h.encode(ctx, resp)
}

// finishPredictions mirrors the server's: the scale-model predictor plus
// the four baseline extrapolations, merged into wire form.
func (h *tracedHandler) finishPredictions(ctx context.Context, in gpuscale.PredictionInput) ([]server.PredictionPoint, error) {
	var preds []gpuscale.Prediction
	if err := h.call(ctx, "core.Predict", func(context.Context) (err error) {
		preds, err = gpuscale.Predict(in)
		return err
	}); err != nil {
		return nil, err
	}
	var baselines map[string]gpuscale.RegressionModel
	if err := h.call(ctx, "core.FitBaselines", func(context.Context) (err error) {
		baselines, err = gpuscale.FitBaselines([]gpuscale.RegressionPoint{
			{Size: in.Sizes[0], IPC: in.SmallIPC}, {Size: in.Sizes[1], IPC: in.LargeIPC},
		})
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]server.PredictionPoint, len(preds))
	for i, p := range preds {
		bl := make(map[string]float64, len(baselines))
		for name, m := range baselines {
			bl[name] = m.Predict(p.Size)
		}
		out[i] = server.PredictionPoint{Size: p.Size, IPC: p.IPC, Region: p.Region.String(), Baselines: bl}
	}
	return out, nil
}

func floatSizes(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = float64(n)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// chromeTrace renders the spans as Chrome trace_event JSON, the format
// internal/obs writes, with one track per request. Times are host
// microseconds from t0.
func chromeTrace(w io.Writer, spans []span, t0 time.Time) error {
	evs := make([]obs.Event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Req}
		if s.Arg != "" {
			args["outcome"] = s.Arg
		}
		evs = append(evs, obs.Event{
			Name: s.Name, Cat: s.layer(), Phase: "X",
			TS: s.Start.Sub(t0).Microseconds(), Dur: max(1, s.dur().Microseconds()),
			Pid: 1, Tid: int64(s.Req), Args: args,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []obs.Event       `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{evs, "ms", map[string]string{"timeUnit": "host microseconds"}})
}
