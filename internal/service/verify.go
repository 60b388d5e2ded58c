package service

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"deepcat/internal/mat"
)

// VerifyCheckpoint decodes a session checkpoint and fails on the first
// non-finite value anywhere in it: the session metadata (times, states,
// sanitizer history), every replay transition, and every network weight and
// optimizer moment of the embedded agent snapshot, which must also be
// shaped consistently (rl.ReplayState.Check, rl.TD3State.Check). Fleet
// adopt runs it before registering a handed-off session; chaos harnesses
// run it over the checkpoint store to prove that corrupted measurements
// never reached disk.
func VerifyCheckpoint(data []byte) error {
	var ck sessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return fmt.Errorf("service: verify checkpoint: %w", err)
	}
	m := ck.Meta
	if !mat.Finite(m.PrevTime) || !mat.Finite(m.BestTime) || !mat.AllFinite(m.State) ||
		!mat.AllFinite(m.BestAction) || !mat.AllFinite(m.SanRecent) {
		return fmt.Errorf("service: verify checkpoint: session %s: meta carries a non-finite value", m.ID)
	}
	if ck.Snap == nil {
		return fmt.Errorf("service: verify checkpoint: session %s has no snapshot", m.ID)
	}
	if err := ck.Snap.Replay.Check(); err != nil {
		return fmt.Errorf("service: verify checkpoint: session %s: %w", m.ID, err)
	}
	if err := ck.Snap.Agent.Check(); err != nil {
		return fmt.Errorf("service: verify checkpoint: session %s: %w", m.ID, err)
	}
	return nil
}
