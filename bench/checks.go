package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
)

// tally counts operations attempted and failed across the goroutines of a
// run. A failed operation is a transport error, a non-2xx answer or a
// violated correctness check; its latency is never recorded.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string // first few failure reasons, for the printed report
}

const maxNotes = 8

// ok records one attempted operation and, when err is non-nil, its failure.
// It reports whether the operation succeeded.
func (t *tally) ok(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// checkAction verifies a suggested action is dim finite values in [0,1].
func checkAction(a []float64, dim int) error {
	if len(a) != dim {
		return fmt.Errorf("action has %d dims, want %d", len(a), dim)
	}
	for i, v := range a {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("action[%d] = %v outside [0,1]", i, v)
		}
	}
	return nil
}

// checkStep verifies steps advance by exactly one.
func checkStep(got, prev int) error {
	if got != prev+1 {
		return fmt.Errorf("step %d follows step %d", got, prev)
	}
	return nil
}

// digest accumulates the exact bits of every action one session was given.
// Inline-trained sessions and the offline/online pipeline are pure
// functions of their seeds, so two runs of one seed must agree bit for bit.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(action []float64) {
	var b [8]byte
	for _, v := range action {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

// combine hashes per-session digests in session order into the run's
// decision_digest.
func combine(ds []*digest) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d.h.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}
