package warehouse

import (
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"deepcat/internal/core"
	"deepcat/internal/rl"
)

// donorEntry pairs a donor's metadata with its in-memory snapshot.
type donorEntry struct {
	meta donorFileMeta
	snap *core.Snapshot
}

// donorFileMeta is DonorMeta; aliased so the on-disk format below reads as
// a unit.
type donorFileMeta = DonorMeta

// donorFile is the on-disk donor format: metadata plus the agent snapshot.
type donorFile struct {
	Meta donorFileMeta
	Snap *core.Snapshot
}

// loop is the background trainer/compactor: every TrainInterval it compacts
// the log once enough sealed segments accumulate and dispatches donor
// trainings for families with enough new experience, bounded by the worker
// pool. It exits when Close signals stopc; Close then waits for in-flight
// trainings.
func (w *Warehouse) loop() {
	defer w.loopWG.Done()
	ticker := time.NewTicker(w.opts.TrainInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		if w.log.sealedCount() >= w.opts.CompactAfterSegments {
			if err := w.compactLocked(); err != nil {
				w.trainErrs++
			}
		}
		due := w.dueFamiliesLocked()
		w.mu.Unlock()
		for _, sig := range due {
			select {
			case w.trainSlots <- struct{}{}:
			default:
				// Pool is saturated; the family stays due and the next
				// tick retries, so nothing queues without bound.
				continue
			}
			w.trainWG.Add(1)
			go func(sig string) {
				defer w.trainWG.Done()
				defer func() { <-w.trainSlots }()
				// Label the worker so donor-training CPU shows up in
				// profiles attributed to its workload family.
				pprof.Do(context.Background(), pprof.Labels("deepcat_trainer", "donor", "workload", sig),
					func(context.Context) {
						if _, err := w.TrainFamily(sig); err != nil {
							w.mu.Lock()
							w.trainErrs++
							w.mu.Unlock()
						}
					})
			}(sig)
		}
	}
}

// dueFamiliesLocked returns the families whose donors should be
// (re)trained: big enough, enough new experience, not already training.
// Replicated records shipped from fleet peers count toward both bars, so a
// node that only ever observes remote experience still trains donors.
func (w *Warehouse) dueFamiliesLocked() []string {
	var due []string
	for sig, fam := range w.families {
		remote := len(w.remoteBySig[sig])
		if w.training[sig] || len(fam.recs)+remote < w.opts.MinFamilyRecords {
			continue
		}
		if fam.appended+remote-fam.lastTrained < w.opts.TrainMinNew {
			continue
		}
		due = append(due, sig)
	}
	sort.Strings(due)
	return due
}

// TrainFamily synchronously trains the next donor generation for one
// family: a fresh TD3 agent's replay is seeded with the family's retained
// transitions and trained with TrainIters gradient updates — batch RL over
// the log, no environment interaction, so a donor costs compute but zero
// cluster runs. The result is persisted next to the log (atomic rename) and
// becomes the family's warm-start source. At most one training per family
// runs at a time; concurrent calls fail with ErrTraining.
func (w *Warehouse) TrainFamily(sig string) (DonorMeta, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return DonorMeta{}, ErrClosed
	}
	fam, ok := w.families[sig]
	remote := w.remoteRecordsLocked(sig)
	if !ok || len(fam.recs)+len(remote) == 0 {
		w.mu.Unlock()
		return DonorMeta{}, fmt.Errorf("warehouse: %s: %w", sig, ErrUnknownFamily)
	}
	if w.training[sig] {
		w.mu.Unlock()
		return DonorMeta{}, fmt.Errorf("warehouse: %s: %w", sig, ErrTraining)
	}
	w.training[sig] = true
	gen := fam.nextGen
	fam.nextGen++
	appended := fam.appended + len(remote)
	high := fam.high + w.remoteHigh[sig]
	// The local slice header is copied under the lock; appends only ever
	// grow the backing array past len, so the training goroutine's view is
	// stable. The replicated records are concatenated under the lock
	// because a compacted file arriving from a peer may replace them.
	recs := fam.recs
	if len(remote) > 0 {
		recs = make([]Record, 0, len(fam.recs)+len(remote))
		recs = append(append(recs, fam.recs...), remote...)
	}
	w.mu.Unlock()

	start := time.Now()
	meta, entry, err := w.trainDonor(sig, gen, recs, high)
	if err == nil {
		w.met.trainingsOK.Inc()
		w.met.trainingDur.ObserveSince(start)
		w.logg.Info("donor trained", "signature", sig, "generation", gen,
			"records", meta.Records, "iters", meta.Iters, "dur", time.Since(start))
	} else {
		w.met.trainingsErr.Inc()
		w.logg.Warn("donor training failed", "signature", sig, "generation", gen, "err", err)
	}

	w.mu.Lock()
	delete(w.training, sig)
	if err == nil {
		fam.lastTrained = appended
		fam.donors = append(fam.donors, entry)
		for len(fam.donors) > w.opts.DonorKeep {
			old := fam.donors[0]
			fam.donors = fam.donors[1:]
			os.Remove(w.donorPath(sig, old.meta.Generation))
		}
	}
	w.mu.Unlock()
	return meta, err
}

// trainDonor does the actual (lock-free) training and persistence.
func (w *Warehouse) trainDonor(sig string, gen int, recs []Record, high int) (DonorMeta, *donorEntry, error) {
	// Belt-and-braces: ingest already quarantines non-finite records, but a
	// donor trained on even one NaN is worthless, so filter again here.
	trs := make([]rl.Transition, 0, len(recs))
	for _, rec := range recs {
		if rec.Transition.Check() == nil {
			trs = append(trs, rec.Transition)
		}
	}
	if len(trs) == 0 {
		return DonorMeta{}, nil, fmt.Errorf("warehouse: donor %s g%d: no finite transitions", sig, gen)
	}
	stateDim, actionDim := len(trs[0].State), len(trs[0].Action)
	tuner, err := core.New(rand.New(rand.NewSource(donorSeed(w.opts.Seed, sig, gen))), core.DefaultConfig(stateDim, actionDim))
	if err != nil {
		return DonorMeta{}, nil, fmt.Errorf("warehouse: donor %s g%d: %w", sig, gen, err)
	}
	tuner.SeedReplay(trs)
	iters := tuner.TrainFromReplay(w.opts.TrainIters)
	// Clone drops the replay buffer, so the persisted snapshot carries only
	// the learned networks — the warm-start path refills replay from the
	// log itself.
	snap, err := tuner.Clone().Snapshot()
	if err == nil {
		// Finite input does not guarantee finite weights: a diverged
		// training run must not become the family's warm-start source.
		err = snap.Agent.Check()
	}
	if err != nil {
		return DonorMeta{}, nil, fmt.Errorf("warehouse: donor %s g%d: %w", sig, gen, err)
	}
	meta := DonorMeta{
		Signature:  sig,
		Generation: gen,
		Records:    len(trs),
		HighReward: high,
		Iters:      iters,
		TrainedAt:  time.Now().UTC(),
	}
	if err := w.saveDonor(meta, snap); err != nil {
		return DonorMeta{}, nil, err
	}
	return meta, &donorEntry{meta: meta, snap: snap}, nil
}

// donorSeed derives a deterministic per-(family, generation) seed.
func donorSeed(base int64, sig string, gen int) int64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return base ^ int64(h.Sum64()&0x7fffffffffff) ^ int64(gen)<<48
}

// saveDonor writes the donor file atomically (temp + fsync + rename).
func (w *Warehouse) saveDonor(meta DonorMeta, snap *core.Snapshot) error {
	tmp, err := os.CreateTemp(w.opts.Dir, "donor-*.tmp")
	if err != nil {
		return fmt.Errorf("warehouse: save donor: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(donorFile{Meta: meta, Snap: snap}); err != nil {
		tmp.Close()
		return fmt.Errorf("warehouse: save donor: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("warehouse: save donor: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("warehouse: save donor: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.donorPath(meta.Signature, meta.Generation)); err != nil {
		return fmt.Errorf("warehouse: save donor: %w", err)
	}
	return nil
}

// loadDonors scans the directory for persisted donors and attaches them to
// their families (creating a family entry when the log was compacted away
// but the donor survived). Unreadable donor files, and donors whose agent
// fails rl.TD3State.Check, are skipped.
func (w *Warehouse) loadDonors() error {
	entries, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return fmt.Errorf("warehouse: scan donors: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "donor-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		f, err := os.Open(filepath.Join(w.opts.Dir, name))
		if err != nil {
			continue
		}
		var df donorFile
		decErr := gob.NewDecoder(f).Decode(&df)
		f.Close()
		if decErr != nil || df.Snap == nil || df.Meta.Signature == "" || df.Snap.Agent.Check() != nil {
			continue
		}
		fam := w.families[df.Meta.Signature]
		if fam == nil {
			fam = &family{sig: df.Meta.Signature, nextGen: 1}
			w.families[df.Meta.Signature] = fam
		}
		fam.donors = append(fam.donors, &donorEntry{meta: df.Meta, snap: df.Snap})
		if df.Meta.Generation >= fam.nextGen {
			fam.nextGen = df.Meta.Generation + 1
		}
	}
	for _, fam := range w.families {
		sort.Slice(fam.donors, func(i, j int) bool {
			return fam.donors[i].meta.Generation < fam.donors[j].meta.Generation
		})
	}
	return nil
}

// WarmStart is what a new session receives from the warehouse: the best
// donor's snapshot (networks only) and the family's retained high-reward
// transitions to pre-fill the session's replay pools.
type WarmStart struct {
	Donor DonorMeta
	// Snap carries the donor agent; callers must treat it as read-only
	// (core's restore paths copy out of it).
	Snap *core.Snapshot
	// Seeds are transitions with reward >= the threshold passed to
	// WarmStart, newest-first capped at the requested maximum, returned
	// oldest-first so replay insertion order matches arrival order.
	Seeds []rl.Transition
}

// WarmStart returns warm-start material for a signature: the latest donor
// (trained on the most experience) plus up to maxSeeds high-reward
// (reward >= rth) retained transitions. ok is false when the family is
// unknown or has no donor yet — callers fall back to a cold start.
func (w *Warehouse) WarmStart(sig string, rth float64, maxSeeds int) (WarmStart, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fam, ok := w.families[sig]
	if !ok || len(fam.donors) == 0 {
		return WarmStart{}, false
	}
	best := fam.donors[len(fam.donors)-1]
	ws := WarmStart{Donor: best.meta, Snap: best.snap}
	if maxSeeds > 0 {
		for i := len(fam.recs) - 1; i >= 0 && len(ws.Seeds) < maxSeeds; i-- {
			if tr := fam.recs[i].Transition; tr.Reward >= rth {
				ws.Seeds = append(ws.Seeds, tr.Clone())
			}
		}
		// Replicated experience from fleet peers fills whatever local
		// records left of the cap.
		rs := w.remoteBySig[sig]
		for i := len(rs) - 1; i >= 0 && len(ws.Seeds) < maxSeeds; i-- {
			if tr := rs[i].Transition; tr.Reward >= rth {
				ws.Seeds = append(ws.Seeds, tr.Clone())
			}
		}
		// Reverse back to arrival order.
		for i, j := 0, len(ws.Seeds)-1; i < j; i, j = i+1, j-1 {
			ws.Seeds[i], ws.Seeds[j] = ws.Seeds[j], ws.Seeds[i]
		}
	}
	return ws, true
}
