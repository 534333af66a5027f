package main

// The load generator: a closed loop of clients each on its own connection,
// and an open loop on one connection that sends on a seeded schedule and
// times every request from when it was due.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// result is one completed (or failed) request. Times are relative to the
// start of the timed phase.
type result struct {
	ID     int // closed-loop: index into workload.Cold; open-loop: arrival index
	Open   bool
	Req    request
	Due    time.Duration // when the schedule wanted it sent (closed loop: when sent)
	Sent   time.Duration
	Done   time.Duration
	Status int
	Cache  string // X-Cache
	Tier   string // X-Tier
	Hash   string // X-Request-Hash
	Body   []byte
	Sum    [32]byte
	Fail   string // why the request failed; empty on success
	// RTStart and RTEnd bound the client's round trip in Unix nanoseconds,
	// which the server process can compare with its own span times.
	RTStart, RTEnd int64
}

// Latency is the request's time from due to done.
func (r result) Latency() time.Duration { return r.Done - r.Due }

// Lag is how late the generator sent the request against its schedule.
func (r result) Lag() time.Duration { return r.Sent - r.Due }

// Cold reports whether the request ran a computation (a simulation, miss-
// rate sweep or analytic solve) rather than being served from the store.
func (r result) Cold() bool { return r.Cache == "computed" || r.Cache == "coalesced" }

// loader sends requests to one server base URL. When traced is set, every
// request carries its ids so the traced handler can parent its spans under
// the client's round-trip span.
type loader struct {
	base   string
	traced bool
	t0     time.Time
}

// newClient returns an HTTP client pinned to a single connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// since is the time since the start of the timed phase.
func (d *loader) since() time.Duration { return time.Since(d.t0) }

// send performs one request and fills in everything but Due and Sent.
func (d *loader) send(c *http.Client, res *result) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/"+res.Req.Op, bytes.NewReader(res.Req.Body))
	if err != nil {
		res.Fail = err.Error()
		res.Done = d.since()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if d.traced {
		req.Header.Set(hdrRequest, strconv.Itoa(traceReqID(res)))
		req.Header.Set(hdrSpan, strconv.FormatInt(rootSpanID(res), 10))
	}
	res.RTStart = time.Now().UnixNano()
	resp, err := c.Do(req)
	if err == nil {
		res.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.Status = resp.StatusCode
		res.Cache = resp.Header.Get("X-Cache")
		res.Tier = resp.Header.Get("X-Tier")
		res.Hash = resp.Header.Get("X-Request-Hash")
	}
	res.RTEnd = time.Now().UnixNano()
	res.Done = d.since()
	switch {
	case err != nil:
		res.Fail = err.Error()
	case res.Status != http.StatusOK:
		res.Fail = fmt.Sprintf("HTTP %d: %s", res.Status, bytes.TrimSpace(res.Body))
	}
	res.Sum = sha256.Sum256(res.Body)
}

// rootSpanID is the id of a request's round-trip span, clear of the ids
// the server-side tracer hands out.
func rootSpanID(r *result) int64 { return 1<<40 + int64(traceReqID(r)) }

// traceReqID gives open- and closed-loop requests disjoint trace ids.
func traceReqID(r *result) int {
	if r.Open {
		return r.ID
	}
	return -1 - r.ID
}

// phase is one timed pass of a workload against a server.
type phase struct {
	cold    []request
	clients int
	keys    []request
	next    func() arrival // the open loop's arrivals, in order
	// minDur keeps the open loop sending until at least this long after the
	// start, even when the closed loop finishes first.
	minDur time.Duration
	// openLimit, when positive, makes the open loop send exactly this many
	// requests (a replay of an earlier pass) instead of stopping on time.
	openLimit int
}

// run drives one pass and returns the closed-loop and open-loop results and
// the closed loop's wall time.
func (d *loader) run(ctx context.Context, p phase) (closed, open []result, closedWall time.Duration) {
	d.t0 = time.Now()
	closed = make([]result, len(p.cold))
	var next atomic.Int64
	var closedDone atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.cold) || ctx.Err() != nil {
					return
				}
				r := &closed[i]
				r.ID, r.Req = i, p.cold[i]
				r.Due = d.since()
				r.Sent = r.Due
				d.send(cl, r)
			}
		}()
	}
	openDone := make(chan []result, 1)
	if p.next == nil {
		openDone <- nil
	} else {
		go func() { openDone <- d.openLoop(ctx, p, &closedDone) }()
	}
	wg.Wait()
	closedWall = d.since()
	closedDone.Store(true)
	open = <-openDone
	return closed, open, closedWall
}

// openLoop sends the scheduled arrivals one after another on a single
// connection. A request that arrives while the connection is busy waits
// for it, and its latency counts from its due time, so a stall is charged
// to every request queued behind it.
func (d *loader) openLoop(ctx context.Context, p phase, closedDone *atomic.Bool) []result {
	cl := newClient()
	defer cl.CloseIdleConnections()
	var out []result
	for i := 0; ctx.Err() == nil; i++ {
		if p.openLimit > 0 && i >= p.openLimit {
			break
		}
		a := p.next()
		if p.openLimit <= 0 && closedDone.Load() && d.since() >= p.minDur {
			break
		}
		d.sleepUntil(a.Due)
		r := result{ID: i, Open: true, Req: p.keys[a.Key], Due: a.Due, Sent: d.since()}
		d.send(cl, &r)
		out = append(out, r)
	}
	return out
}

// spinWindow is how long before a request is due the open loop stops
// sleeping and spins.
const spinWindow = 200 * time.Microsecond

// sleepUntil returns when the phase clock reaches due. It sleeps in
// nanosleep(2), since Go's timers wake up to a millisecond late, and spins
// through the last spinWindow, since even nanosleep wakes about 0.1 ms
// late — a fifth of what a store hit takes.
func (d *loader) sleepUntil(due time.Duration) {
	if wait := due - d.since() - spinWindow; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for d.since() < due {
	}
}
