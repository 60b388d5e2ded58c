package main

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Every span of one request
// carries the same id ("session/op/step"), set by the client wrapper that
// opened the root span.
type span struct {
	name  string
	id    string
	start int64 // ns since the recorder's epoch
	end   int64
}

// recorder keeps the spans of a traced run in memory until the run ends.
// The wrappers around the client, the HTTP handler and the Store are always
// installed in a traced run; `on` gates whether they record, so the run can
// alternate traced and untraced segments and report what tracing costs.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// inFlight maps a session id to the id of the request the client has
	// outstanding for it; sessions are closed loops, so there is at most one.
	inFlight sync.Map
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enabled is safe on a nil recorder (an untraced run has none).
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(name, id string, start, end time.Time) {
	sp := span{name: name, id: id, start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// requestID returns the id of the request in flight for a session, or the
// session id itself for work no client span covers (boot-time resumes).
func (r *recorder) requestID(session string) string {
	if v, ok := r.inFlight.Load(session); ok {
		return v.(string)
	}
	return session
}

// spanAgg is the per-name aggregate the ledger is built from.
type spanAgg struct {
	Count  int
	BusyNs int64
	// SelfNs is busy time minus the part of each span's interval that its
	// child spans (same request id, this name among parents[child]) cover.
	SelfNs int64
}

// The accessors are nil-safe: a span name nothing recorded has no aggregate.

func (a *spanAgg) count() int {
	if a == nil {
		return 0
	}
	return a.Count
}

// perCallMs is the mean busy time of one span.
func (a *spanAgg) perCallMs() float64 {
	if a.count() == 0 {
		return 0
	}
	return float64(a.BusyNs) / 1e6 / float64(a.Count)
}

// selfPerCallMs is the mean self time of one span.
func (a *spanAgg) selfPerCallMs() float64 {
	if a.count() == 0 {
		return 0
	}
	return float64(a.SelfNs) / 1e6 / float64(a.Count)
}

// aggregate folds spans by name. parents maps a span name to the names of
// the spans that can cause it (a Store write happens under an observe, a
// handoff or a create); roots are absent from the map. A span with a parent
// in its request is also folded under the key "parent>name", so the ledger
// can place one layer under each of its callers.
func aggregate(spans []span, parents map[string][]string) map[string]*spanAgg {
	byID := make(map[string][]span)
	for _, sp := range spans {
		byID[sp.id] = append(byID[sp.id], sp)
	}
	out := make(map[string]*spanAgg)
	fold := func(key string, busy, self int64) {
		a := out[key]
		if a == nil {
			a = &spanAgg{}
			out[key] = a
		}
		a.Count++
		a.BusyNs += busy
		a.SelfNs += self
	}
	for _, group := range byID {
		for _, sp := range group {
			busy := sp.end - sp.start
			self := busy - covered(sp, group, parents)
			fold(sp.name, busy, self)
			for _, p := range group {
				if slices.Contains(parents[sp.name], p.name) && p.start <= sp.start && sp.end <= p.end {
					fold(p.name+">"+sp.name, busy, self)
					break
				}
			}
		}
	}
	return out
}

// covered returns how much of p's interval its direct children cover,
// counting overlapping children once and clipping them to p.
func covered(p span, group []span, parents map[string][]string) int64 {
	type iv struct{ s, e int64 }
	var kids []iv
	for _, c := range group {
		if !slices.Contains(parents[c.name], p.name) || c.end <= p.start || c.start >= p.end {
			continue
		}
		kids = append(kids, iv{max(c.start, p.start), min(c.end, p.end)})
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].s < kids[j].s })
	var total, hi int64
	hi = p.start
	for _, k := range kids {
		if k.e <= hi {
			continue
		}
		total += k.e - max(k.s, hi)
		hi = k.e
	}
	return total
}
