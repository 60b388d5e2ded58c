package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"deepcat/internal/admission"
	"deepcat/internal/obs"
	"deepcat/internal/trace"
)

// maxBodyBytes bounds request bodies; the largest legitimate body (an
// observation with a state vector) is well under 1 MiB.
const maxBodyBytes = 1 << 20

// requestIDHeader carries the per-request correlation id. The server
// generates one (or adopts a caller-supplied one) and echoes it on the
// response, and both ends log it, so a slow suggest in a scheduler's log
// can be matched to the server-side histogram sample it produced.
const requestIDHeader = "X-Request-Id"

// shardHeader names the fleet shard that actually served a response. A
// fleet node stamps itself before handling; the proxy path overwrites it
// with the owner's value, so a client of a proxied call learns which shard
// did the work (the typed client surfaces it in APIError).
const shardHeader = "X-Deepcat-Shard"

// Server is the HTTP front end over a Manager. It is an http.Handler;
// mount it on any listener. Every route is instrumented with the
// registry/logger attached to the Manager (see Manager.AttachObs): request
// counts and latency histograms per endpoint, an in-flight gauge, and a
// request-id-tagged access log line per call.
type Server struct {
	manager *Manager
	mux     *http.ServeMux
	log     *obs.Logger
	// fleet, when non-nil, makes this server one shard of a fleet: session
	// routes gain ownership dispatch and the /v1/fleet/* endpoints appear.
	fleet *fleetGlue
	// rec is the process-level flight recorder (spooled to _server.jsonl
	// under the trace dir): every HTTP hop records a span carrying the
	// propagated trace context, so cmd/deepcat-trace can stitch one
	// request's route/proxy/handler/session spans across shard spools. Nil
	// when the daemon runs with tracing off — that path records nothing.
	rec *trace.Session
	// adm, when non-nil, is the shard's AIMD admission limiter: guarded
	// endpoints acquire a slot before their handler runs and shed with
	// 429 + Retry-After when their priority class is out of headroom. Nil
	// disables shedding entirely (the default for bare NewServer, so
	// embedded/test servers behave exactly as before).
	adm *admission.Limiter
}

// NewServer builds the route table over m for a standalone daemon.
func NewServer(m *Manager) *Server {
	return NewFleetServer(m, FleetOptions{})
}

// NewFleetServer builds the route table over m as one shard of a fleet; a
// zero FleetOptions degenerates to a standalone server.
func NewFleetServer(m *Manager, opts FleetOptions) *Server {
	reg, logger := m.Obs()
	s := &Server{manager: m, mux: http.NewServeMux(), log: logger, rec: newRecorder(m.tc, "_server"), adm: opts.Admission}
	if opts.Router != nil {
		s.fleet = newFleetGlue(m, opts)
		s.fleet.rec = s.rec
	}
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(newHTTPMetrics(reg, endpoint), endpoint, h))
	}
	route("GET /healthz", "healthz", s.handleHealth)
	route("GET /v1/healthz", "healthz", s.handleHealth)
	route("GET /v1/readyz", "readyz", s.handleReady)
	route("POST /v1/sessions", "session_create", s.handleCreate)
	route("GET /v1/sessions", "session_list", s.handleList)
	route("GET /v1/sessions/{id}", "session_get", s.routed(s.handleGet))
	route("DELETE /v1/sessions/{id}", "session_delete", s.routed(s.handleDelete))
	route("POST /v1/sessions/{id}/suggest", "suggest", s.routed(s.handleSuggest))
	route("POST /v1/sessions/{id}/observe", "observe", s.routed(s.handleObserve))
	route("GET /v1/sessions/{id}/trace", "trace", s.routed(s.handleTrace))
	route("GET /v1/sessions/{id}/trace/export", "trace_export", s.routed(s.handleTraceExport))
	route("GET /v1/warehouse/stats", "warehouse_stats", s.handleWarehouseStats)
	route("GET /v1/warehouse/families/{sig}/donors", "warehouse_donors", s.handleWarehouseDonors)
	route("GET /v1/metrics/snapshot", "metrics_snapshot", s.handleMetricsSnapshot)
	if s.fleet != nil {
		route("GET /v1/fleet/metrics", "fleet_metrics", s.handleFleetMetrics)
		route("GET /v1/fleet/ring", "fleet_ring", s.handleRing)
		route("GET /v1/fleet/segments", "fleet_segments", s.handleSegments)
		route("GET /v1/fleet/segments/{name}", "fleet_segment", s.handleSegment)
		route("POST /v1/fleet/migrate/{id}", "fleet_migrate", s.handleMigrate)
		route("POST /v1/fleet/adopt/{id}", "fleet_adopt", s.handleAdopt)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// newRequestID generates a short random correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "r-" + hex.EncodeToString(b[:])
}

// instrument wraps a handler with the per-endpoint bookkeeping: request-id
// assignment, trace-context propagation, deadline-budget enforcement,
// admission control, in-flight gauge, duration histogram, status-labelled
// request counter and one access log line.
//
// Trace context: a well-formed traceparent header is adopted and echoed on
// the response; with tracing enabled a missing one is minted (crypto/rand —
// never the tuner's seeded stream, so propagation is decision-neutral).
// The context rides the request's context.Context down to the session
// spans, and the server recorder logs one span per hop carrying it, which
// is what lets deepcat-trace stitch a request across shard spools. With
// tracing off and no caller-supplied header, nothing is minted, parsed
// into the context, or recorded — the path is unchanged.
//
// Overload control, in order: an X-Deepcat-Deadline budget that cannot
// cover the endpoint's observed p99 is rejected up front with 504 (the
// request was already dead; failing in microseconds beats queueing it to
// its grave); a surviving budget becomes the request context's deadline so
// every downstream stage — and the proxy hop — inherits it. Then the
// admission limiter (when configured) takes a slot for the endpoint's
// priority class or sheds with 429 + Retry-After; on completion the slot
// is released with a congestion signal (503/504 answers shrink the limit,
// everything else grows it). Health, readiness and metrics endpoints are
// exempt — during an overload they are exactly the endpoints that must
// keep answering.
func (s *Server) instrument(hm httpMetrics, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	prio, guarded := endpointPriority(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = newRequestID()
			// Stamp the request too, so the proxy path forwards the same id
			// this node answers with and all hops share one correlation id.
			r.Header.Set(requestIDHeader, reqID)
		}
		w.Header().Set(requestIDHeader, reqID)
		if s.fleet != nil {
			w.Header().Set(shardHeader, s.fleet.router.Self())
		}
		sc, traced := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
		if !traced && s.rec != nil {
			sc, traced = trace.NewSpanContext(), true
		}
		if traced {
			w.Header().Set(trace.TraceparentHeader, sc.Traceparent())
			r = r.WithContext(trace.ContextWith(r.Context(), sc))
		}
		sp := trace.Begin(s.rec, "http."+endpoint).
			Attr("request_id", reqID).AttrContext(sc)
		hm.inFlight.Inc()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		admitted := func() bool {
			budget, hasBudget, derr := parseDeadline(r)
			if derr != nil {
				writeJSON(sr, http.StatusBadRequest, ErrorResponse{Error: derr.Error()})
				return false
			}
			if hasBudget {
				// The p99 gate needs a populated histogram; early in a
				// process's life the request is admitted on its deadline
				// alone.
				if hm.dur != nil && hm.dur.Count() >= deadlineMinSamples {
					if p99 := time.Duration(hm.dur.Quantile(0.99) * float64(time.Second)); p99 > 0 && budget < p99 {
						hm.shed("deadline").Inc()
						writeBudgetReject(sr, budget, p99, endpoint)
						return false
					}
				}
				ctx, cancel := context.WithTimeout(r.Context(), budget)
				defer cancel()
				r = r.WithContext(ctx)
			}
			if s.adm != nil && guarded {
				if !s.adm.Acquire(prio) {
					hm.shed("admission").Inc()
					writeShed(sr, s.adm.RetryAfter(), endpoint, prio)
					return false
				}
				defer func() {
					s.adm.Release(sr.status == http.StatusServiceUnavailable ||
						sr.status == http.StatusGatewayTimeout)
				}()
			}
			h(sr, r)
			return true
		}()

		hm.inFlight.Dec()
		if admitted {
			// Shed/rejected requests answer in microseconds; keeping them
			// out of the histogram stops them dragging the p99 estimate —
			// which gates future deadlines — down during an overload.
			hm.dur.ObserveSince(start)
		}
		hm.requests(strconv.Itoa(sr.status)).Inc()
		sp.AttrInt("status", sr.status).End()
		// Per-request lines go out at debug so an info-level daemon is not
		// spammed by healthy traffic; server-side failures always surface.
		if sr.status >= 500 {
			s.log.Warn("request failed", "request_id", reqID, "endpoint", endpoint,
				"method", r.Method, "path", r.URL.Path, "code", sr.status,
				"dur", time.Since(start))
		} else {
			s.log.Debug("request", "request_id", reqID, "endpoint", endpoint,
				"method", r.Method, "path", r.URL.Path, "code", sr.status,
				"dur", time.Since(start))
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:           "ok",
		Sessions:         s.manager.Count(),
		MaxSessions:      s.manager.MaxSessions(),
		DegradedSessions: s.manager.DegradedCount(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if g := s.fleet; g != nil && !g.router.Single() {
		if req.ID == "" {
			// Any shard can accept an anonymous create by drawing an id it
			// owns itself — no forwarding, and the client's first suggest
			// lands on the right node immediately.
			req.ID = g.newOwnedID()
		} else if !g.router.Owns(req.ID) && r.Header.Get(forwardedHeader) == "" {
			// Explicit ids route like any session request. The body was
			// consumed by decodeBody, so the proxy path re-marshals it; the
			// redirect path relies on the client re-sending its body, which
			// carries the id.
			owner := g.router.Owner(req.ID)
			if g.proxy {
				body, _ := json.Marshal(req)
				g.proxyWith(w, r, owner, bytes.NewReader(body))
			} else {
				g.redirect(w, r, owner)
			}
			return
		}
	}
	info, err := s.manager.Create(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.manager.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.manager.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	// instrument already stamped the response header with the request id;
	// pass it down so the session's trace span carries the same value.
	resp, err := s.manager.SuggestCtx(r.Context(), r.PathValue("id"), w.Header().Get(requestIDHeader))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.manager.ObserveCtx(r.Context(), r.PathValue("id"), req, w.Header().Get(requestIDHeader))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad n %q", v)})
			return
		}
		n = parsed
	}
	events, err := s.manager.Trace(id, n)
	if err != nil {
		writeErr(w, err)
		return
	}
	sess, err := s.manager.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		Session: id,
		Events:  events,
		Dropped: sess.TraceDropped(),
	})
}

func (s *Server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("format"); f != "" && f != "chrome" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown trace format %q", f)})
		return
	}
	id := r.PathValue("id")
	events, err := s.manager.Trace(id, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChrome(w, id, events)
}

// handleMetricsSnapshot serves this shard's registry as a mergeable JSON
// snapshot (see obs.Snapshot). It is the per-shard scrape target of the
// fleet aggregator, mounted on the tuning port so peers need no access to
// the optional ops listener. A daemon without a registry answers an empty
// snapshot rather than erroring — the aggregator then merges nothing.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.MetricsSnapshot())
}

func (s *Server) handleWarehouseStats(w http.ResponseWriter, r *http.Request) {
	wh := s.manager.Warehouse()
	if wh == nil {
		writeJSON(w, http.StatusOK, WarehouseStatsResponse{Enabled: false})
		return
	}
	st := wh.Stats()
	writeJSON(w, http.StatusOK, WarehouseStatsResponse{Enabled: true, Stats: &st})
}

func (s *Server) handleWarehouseDonors(w http.ResponseWriter, r *http.Request) {
	wh := s.manager.Warehouse()
	if wh == nil {
		writeErr(w, fmt.Errorf("warehouse not enabled: %w", ErrNotFound))
		return
	}
	sig := r.PathValue("sig")
	donors, err := wh.Donors(sig)
	if err != nil {
		writeErr(w, fmt.Errorf("%s: %w", err, ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, DonorListResponse{Signature: sig, Donors: donors})
}

// decodeBody parses a JSON body into v, writing a 400 and returning false
// on failure. An empty body decodes the zero value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("malformed request body: %s", err)})
		return false
	}
	return true
}

// writeJSON writes v with the given status. v is encoded before the status
// goes out, so a reply JSON cannot carry (a NaN action, say) becomes a 500
// ErrorResponse instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(ErrorResponse{Error: fmt.Sprintf("encode response: %s", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// writeErr maps the service sentinel errors onto HTTP statuses. Every
// retriable rejection carries a Retry-After so clients back off by the
// server's estimate instead of their own schedule.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusGone
	case errors.Is(err, ErrFull):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	case errors.Is(err, ErrDraining):
		// Mid-migration; by the time a client retries, the tombstone or
		// ring will route it to the new owner.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.DeadlineExceeded):
		// The propagated budget expired mid-request. 504, like the
		// up-front gate, so deadline death is never a 5xx-class server
		// fault in the shed accounting.
		status = http.StatusGatewayTimeout
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.Canceled):
		// The caller went away; nobody is reading this response. 499 by
		// nginx convention keeps abandoned requests out of the 5xx error
		// budget.
		status = 499
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
