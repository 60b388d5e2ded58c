package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"deepcat/internal/obs"
)

// A reply JSON cannot carry (a NaN action) must reach the client as a 500
// ErrorResponse that the request metrics count as a server error, never as
// a 200 with an empty body.
func TestWriteJSONNaNIsServerError(t *testing.T) {
	m := NewManager(NewMemStore(), 0)
	reg := obs.NewRegistry()
	m.AttachObs(reg, nil)
	s := NewServer(m)
	h := s.instrument(newHTTPMetrics(reg, "suggest"), "suggest", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, SuggestResponse{Step: 1, Action: []float64{0.5, math.NaN()}})
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/nan/suggest", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("body %q is not an ErrorResponse (%v)", rec.Body.String(), err)
	}
	requests := func(code string) uint64 {
		return reg.Counter("deepcat_http_requests_total", "endpoint", "suggest", "code", code).Value()
	}
	if requests("500") != 1 || requests("200") != 0 {
		t.Fatalf("requests_total: 500=%d 200=%d, want 1 and 0", requests("500"), requests("200"))
	}
}
