package service

import (
	"time"

	"deepcat/internal/env"
	"deepcat/internal/trace"
)

// Session health states, reported in SessionInfo.Health and
// ObserveResponse.Health.
const (
	// HealthHealthy is the normal state: suggestions come from the model
	// and observations are learned from.
	HealthHealthy = "healthy"
	// HealthDegraded means the session's circuit breaker tripped after a
	// run of consecutive failures: suggestions fall back to the last known
	// good configuration and observations are recorded but not learned
	// from, protecting the agent and the warehouse from a failing or
	// corrupted environment.
	HealthDegraded = "degraded"
	// HealthHalfOpen means the breaker's cooldown elapsed: the next
	// suggestion is a fresh model probe, and its observation decides
	// between recovery and another degraded period.
	HealthHalfOpen = "half_open"
)

// Resilience configures per-session fault handling: the circuit breaker
// and the observation sanitizer. The zero value selects the defaults via
// normalize; use a negative SanitizeWindow to disable sanitizing.
type Resilience struct {
	// BreakerThreshold is the number of consecutive failed (or
	// quarantined) observations that trips the session into the degraded
	// state (default 5; < 0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is the number of observations the session sits out
	// while degraded before probing half-open (default 2).
	BreakerCooldown int
	// SanitizeWindow is the sanitizer's accepted-history window
	// (default 20; < 0 disables the outlier test — non-finite values are
	// always rejected).
	SanitizeWindow int
	// SanitizeMADK is the MAD-multiple rejection threshold (default
	// env.DefaultMADK).
	SanitizeMADK float64
}

// DefaultResilience returns the daemon's default fault-handling profile.
func DefaultResilience() Resilience {
	return Resilience{
		BreakerThreshold: 5,
		BreakerCooldown:  2,
		SanitizeWindow:   20,
		SanitizeMADK:     env.DefaultMADK,
	}
}

// normalize fills zero fields with defaults, preserving explicit negative
// (disabled) settings.
func (r Resilience) normalize() Resilience {
	d := DefaultResilience()
	if r.BreakerThreshold == 0 {
		r.BreakerThreshold = d.BreakerThreshold
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = d.BreakerCooldown
	}
	if r.SanitizeWindow == 0 {
		r.SanitizeWindow = d.SanitizeWindow
	}
	if r.SanitizeMADK <= 0 {
		r.SanitizeMADK = d.SanitizeMADK
	}
	return r
}

// breakerObserve advances the circuit breaker on one observation outcome
// and returns the (previous, new) health pair. Transitions are traced,
// counted and logged here so every caller reports them uniformly. Callers
// hold s.mu.
func (s *Session) breakerObserve(failed bool, now time.Time) (prev, cur string) {
	prev = s.meta.Health
	if s.res.BreakerThreshold < 0 {
		return prev, prev
	}
	cur = prev
	switch prev {
	case HealthDegraded:
		s.meta.DegradedObs++
		if s.meta.DegradedObs >= s.res.BreakerCooldown {
			cur = HealthHalfOpen
		}
	case HealthHalfOpen:
		if failed {
			cur = HealthDegraded
			s.meta.DegradedObs = 0
			s.meta.BreakerTrips++
		} else {
			cur = HealthHealthy
			s.meta.ConsecFails = 0
		}
	default:
		if failed {
			s.meta.ConsecFails++
			if s.meta.ConsecFails >= s.res.BreakerThreshold {
				cur = HealthDegraded
				s.meta.DegradedObs = 0
				s.meta.BreakerTrips++
			}
		} else {
			s.meta.ConsecFails = 0
		}
	}
	s.meta.Health = cur
	if cur == prev {
		return prev, cur
	}
	sp := trace.Begin(s.rec, "breaker_"+transitionName(prev, cur)).
		Attr("from", prev).Attr("to", cur).
		AttrInt("consecutive_failures", s.meta.ConsecFails)
	sp.End()
	switch {
	case cur == HealthDegraded && prev == HealthHealthy:
		s.met.breakerTrips.Inc()
		s.met.degradedSessions.Inc()
	case cur == HealthDegraded && prev == HealthHalfOpen:
		s.met.breakerTrips.Inc()
	case cur == HealthHealthy:
		s.met.breakerRecoveries.Inc()
		s.met.degradedSessions.Dec()
	}
	return prev, cur
}

// transitionName labels a breaker transition for the trace stream.
func transitionName(prev, cur string) string {
	switch {
	case cur == HealthDegraded:
		return "trip"
	case cur == HealthHalfOpen:
		return "half_open"
	default:
		return "close"
	}
}
