package core

import (
	"fmt"

	"deepcat/internal/rl"
)

// SeedReplay bulk-loads transitions into the tuner's replay buffer; an
// RDPER buffer routes each one into its high- or low-reward pool as usual.
// The experience warehouse uses it to seed donor training and to pre-fill a
// warm-started session's pools with the fleet's high-reward experience.
func (d *DeepCAT) SeedReplay(trs []rl.Transition) {
	for _, tr := range trs {
		d.Buffer.Add(tr)
	}
}

// TrainFromReplay performs up to iters gradient updates sampled from the
// current replay contents without any environment interaction — batch RL
// over logged experience. This is how the warehouse distills a workload
// family's transition log into a donor agent: the training costs compute
// but zero cluster runs, the same cost argument the Twin-Q Optimizer makes
// for individual recommendations. It returns the number of updates
// performed, zero when the buffer holds fewer than two transitions.
func (d *DeepCAT) TrainFromReplay(iters int) int {
	done := 0
	for i := 0; i < iters && d.Buffer.Len() >= 2; i++ {
		d.trainOnce(min(d.Cfg.BatchSize, d.Buffer.Len()))
		done++
	}
	return done
}

// AdoptWeights copies an agent state into d: a warehouse donor's networks
// at warm-start, or a spine learner's published policy. It leaves d's
// configuration, replay buffer and random stream untouched, so adoption
// composes with deterministic checkpoint resume: a restored session that
// re-adopts the same published version reproduces the same tuner bit for
// bit. A state that fails rl's checks is refused and d keeps its own
// weights.
func (d *DeepCAT) AdoptWeights(st rl.TD3State) error {
	if err := d.Agent.RestoreState(st); err != nil {
		return fmt.Errorf("core: adopt weights: %w", err)
	}
	return nil
}
