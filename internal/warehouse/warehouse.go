// Package warehouse is the fleet experience store behind the tuning
// service: every session streams its observed transitions into an
// append-only, segmented, CRC-checked log keyed by a workload signature; a
// background trainer pool periodically distills each workload family's
// experience into "donor" TD3 agents (batch RL over the logged transitions,
// persisted as core.Snapshots); and new sessions on a known signature
// warm-start from the best donor instead of learning from scratch — the
// paper's experience-reuse argument lifted from one session to the whole
// fleet.
package warehouse

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"deepcat/internal/core"
	"deepcat/internal/obs"
	"deepcat/internal/rl"
)

// Sentinel errors.
var (
	// ErrClosed marks calls against a closed warehouse.
	ErrClosed = errors.New("warehouse closed")
	// ErrUnknownFamily marks a signature with no recorded experience.
	ErrUnknownFamily = errors.New("unknown workload family")
	// ErrTraining marks a training request for a family whose donor is
	// already being trained.
	ErrTraining = errors.New("donor training already in flight")
)

// Signature derives the workload-family key from an environment descriptor:
// cluster, canonical workload abbreviation and 1-based input index, e.g.
// "a.TS.1". Equal signatures mean the same tunable system — identical
// configuration space, state dimensionality and performance model — so
// their sessions can exchange experience. The character set is restricted
// to [a-zA-Z0-9.], keeping signatures safe in file names and URL paths.
func Signature(cluster, workload string, input int) string {
	return fmt.Sprintf("%s.%s.%d", cluster, workload, input)
}

// Record is one logged experience: which family it belongs to, which
// session observed it, and the transition itself.
type Record struct {
	// Signature is the workload-family key (see Signature).
	Signature string
	// Session is the originating session id; empty for bulk imports.
	Session string
	// Transition is the observed (s, a, r, s', done) tuple.
	Transition rl.Transition
}

// Options configures a Warehouse. The zero value of every field selects a
// sensible default; only Dir is required.
type Options struct {
	// Dir is the directory holding log segments and donor snapshots.
	Dir string
	// SegmentMaxBytes seals the active log segment past this size
	// (default 4 MiB).
	SegmentMaxBytes int64
	// RetainPerFamily bounds the transitions kept per family; compaction
	// and the in-memory index drop the oldest beyond it (default 20000).
	RetainPerFamily int
	// CompactAfterSegments triggers background compaction once this many
	// sealed segments accumulate (default 8).
	CompactAfterSegments int

	// TrainInterval is the period of the background trainer/compactor
	// loop; zero or negative disables it, leaving TrainFamily and Compact
	// to explicit calls.
	TrainInterval time.Duration
	// TrainIters is the gradient-update budget per donor training run
	// (default 500).
	TrainIters int
	// TrainMinNew is how many new records a family must accumulate before
	// its donor is retrained (default 32).
	TrainMinNew int
	// MinFamilyRecords is the smallest family that gets a donor at all
	// (default 64).
	MinFamilyRecords int
	// TrainWorkers bounds concurrent donor trainings (default 2).
	TrainWorkers int
	// DonorKeep is how many donor generations to keep per family
	// (default 3).
	DonorKeep int
	// Seed drives donor-training randomness (default 1).
	Seed int64

	// Registry, when non-nil, receives the warehouse's metrics: ingest
	// rate and latency, WAL segment/compaction activity, donor-training
	// durations. Nil keeps the whole layer a no-op.
	Registry *obs.Registry
	// Logger, when non-nil, receives warehouse events (compactions, donor
	// trainings, recovery findings).
	Logger *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.RetainPerFamily <= 0 {
		o.RetainPerFamily = 20000
	}
	if o.CompactAfterSegments <= 0 {
		o.CompactAfterSegments = 8
	}
	if o.TrainIters <= 0 {
		o.TrainIters = 500
	}
	if o.TrainMinNew <= 0 {
		o.TrainMinNew = 32
	}
	if o.MinFamilyRecords <= 0 {
		o.MinFamilyRecords = 64
	}
	if o.TrainWorkers <= 0 {
		o.TrainWorkers = 2
	}
	if o.DonorKeep <= 0 {
		o.DonorKeep = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// family is the in-memory index of one workload family.
type family struct {
	sig string
	// recs holds the retained records in arrival order (oldest first).
	recs []Record
	// high counts retained records with reward >= core's R_th.
	high int
	// appended counts every record ever logged for the family, including
	// ones retention has dropped.
	appended int
	// lastTrained is the value of appended when the latest donor was
	// trained.
	lastTrained int
	nextGen     int
	// donors holds the kept generations, oldest first.
	donors []*donorEntry
}

// whMetrics bundles the warehouse's instruments; every field is nil (and
// so no-op) when the warehouse runs without a registry.
type whMetrics struct {
	ingestRecords  *obs.Counter
	ingestBytes    *obs.Counter
	ingestDur      *obs.Histogram
	quarantined    *obs.Counter
	retained       *obs.Gauge
	segmentsSealed *obs.Counter
	compactions    *obs.Counter
	compactionDur  *obs.Histogram
	trainingsOK    *obs.Counter
	trainingsErr   *obs.Counter
	trainingDur    *obs.Histogram
}

func newWHMetrics(reg *obs.Registry) whMetrics {
	// Donor trainings run batch RL for hundreds of gradient updates;
	// stretch the latency buckets accordingly.
	trainBuckets := []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
	return whMetrics{
		ingestRecords:  reg.Counter("deepcat_warehouse_ingest_records_total"),
		ingestBytes:    reg.Counter("deepcat_warehouse_ingest_bytes_total"),
		ingestDur:      reg.Histogram("deepcat_warehouse_ingest_duration_seconds", nil),
		quarantined:    reg.Counter("deepcat_warehouse_quarantined_records_total"),
		retained:       reg.Gauge("deepcat_warehouse_retained_records"),
		segmentsSealed: reg.Counter("deepcat_warehouse_segments_sealed_total"),
		compactions:    reg.Counter("deepcat_warehouse_compactions_total"),
		compactionDur:  reg.Histogram("deepcat_warehouse_compaction_duration_seconds", nil),
		trainingsOK:    reg.Counter("deepcat_warehouse_donor_trainings_total", "result", "ok"),
		trainingsErr:   reg.Counter("deepcat_warehouse_donor_trainings_total", "result", "error"),
		trainingDur:    reg.Histogram("deepcat_warehouse_donor_training_duration_seconds", trainBuckets),
	}
}

// Warehouse is the fleet experience store. All methods are safe for
// concurrent use.
type Warehouse struct {
	opts Options
	met  whMetrics
	logg *obs.Logger

	mu          sync.Mutex
	log         *wal
	families    map[string]*family
	recovered   walRecovery
	training    map[string]bool
	trainErrs   int
	quarantined int // records refused by the non-finite ingest guard
	retained    int // total records across family indexes, mirrored to met.retained
	closed      bool

	// Fleet replica index: immutable log files applied from peers (see
	// ship.go). remoteBySig flattens the applied records per workload
	// signature for training and warm-start; remoteHigh counts the
	// high-reward subset.
	remote      map[string]*remoteSource
	remoteBySig map[string][]Record
	remoteHigh  map[string]int

	stopc      chan struct{}
	loopWG     sync.WaitGroup
	trainWG    sync.WaitGroup
	trainSlots chan struct{}
}

// Open recovers (or creates) the warehouse under opts.Dir: committed log
// segments are replayed into the in-memory index, a torn tail record left
// by a crash is detected via its CRC and truncated, and persisted donor
// snapshots are reloaded, so training resumes from everything that was ever
// committed. When opts.TrainInterval is positive a background goroutine
// compacts the log and retrains due families on that period.
func Open(opts Options) (*Warehouse, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("warehouse: no directory configured")
	}
	opts = opts.withDefaults()
	log, payloads, recovered, err := openWAL(opts.Dir, opts.SegmentMaxBytes)
	if err != nil {
		return nil, err
	}
	w := &Warehouse{
		opts:        opts,
		met:         newWHMetrics(opts.Registry),
		logg:        opts.Logger,
		log:         log,
		families:    make(map[string]*family),
		recovered:   recovered,
		training:    make(map[string]bool),
		remote:      make(map[string]*remoteSource),
		remoteBySig: make(map[string][]Record),
		remoteHigh:  make(map[string]int),
		stopc:       make(chan struct{}),
		trainSlots:  make(chan struct{}, opts.TrainWorkers),
	}
	log.onSeal = w.met.segmentsSealed.Inc
	for _, payload := range payloads {
		rec, err := decodeRecord(payload)
		if err != nil {
			// CRC passed but gob did not: a record from an incompatible
			// build. Skip it rather than refuse the whole log.
			w.recovered.DroppedBytes += int64(len(payload))
			w.recovered.Records--
			continue
		}
		if rec.Transition.Check() != nil {
			// A log written before the ingest guard existed may carry
			// NaN/Inf; quarantine on replay so corruption never reaches
			// donor training, whatever its vintage.
			w.quarantined++
			w.met.quarantined.Inc()
			w.recovered.Records--
			continue
		}
		w.indexLocked(rec)
	}
	if err := w.loadDonors(); err != nil {
		log.close()
		return nil, err
	}
	if opts.TrainInterval > 0 {
		w.loopWG.Add(1)
		go w.loop()
	}
	w.logg.Info("warehouse opened", "dir", opts.Dir, "records", w.recovered.Records,
		"families", len(w.families), "truncated_bytes", recovered.TruncatedBytes,
		"dropped_bytes", recovered.DroppedBytes)
	return w, nil
}

// Close stops the background loop, waits for in-flight donor trainings to
// finish, and releases the log. Further calls fail with ErrClosed.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stopc)
	w.loopWG.Wait()
	w.trainWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.close()
}

// Append logs one record: it is framed, CRC-stamped, written to the active
// segment and indexed in memory. The record's transition is deep-copied, so
// callers may reuse their slices.
func (w *Warehouse) Append(rec Record) error {
	return w.AppendBatch([]Record{rec})
}

// AppendBatch logs several records under one lock acquisition; sessions use
// it to dump a whole replay buffer after offline training.
func (w *Warehouse) AppendBatch(recs []Record) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	var appended, appendedBytes int
	defer func() {
		if appended > 0 {
			w.met.ingestRecords.Add(uint64(appended))
			w.met.ingestBytes.Add(uint64(appendedBytes))
			w.met.ingestDur.ObserveSince(start)
		}
	}()
	for _, rec := range recs {
		if err := validateRecord(rec); err != nil {
			return err
		}
		if rec.Transition.Check() != nil {
			// Quarantine, don't error: the warehouse is advisory, and one
			// corrupt measurement must not abort the rest of the batch or
			// the caller's observe path. The record never reaches the log,
			// the index or donor training.
			w.quarantined++
			w.met.quarantined.Inc()
			w.logg.Warn("record quarantined", "signature", rec.Signature,
				"session", rec.Session, "reason", "non-finite transition")
			continue
		}
		if fam, ok := w.families[rec.Signature]; ok && len(fam.recs) > 0 {
			prev := fam.recs[len(fam.recs)-1].Transition
			if len(prev.State) != len(rec.Transition.State) || len(prev.Action) != len(rec.Transition.Action) {
				return fmt.Errorf("warehouse: record for %s has dims %dx%d, family holds %dx%d",
					rec.Signature, len(rec.Transition.State), len(rec.Transition.Action),
					len(prev.State), len(prev.Action))
			}
		}
		rec.Transition = rec.Transition.Clone()
		payload, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		if err := w.log.append(payload); err != nil {
			return err
		}
		w.indexLocked(rec)
		appended++
		appendedBytes += frameHeaderBytes + len(payload)
	}
	return nil
}

func validateRecord(rec Record) error {
	if rec.Signature == "" {
		return fmt.Errorf("warehouse: record without signature")
	}
	if len(rec.Transition.State) == 0 || len(rec.Transition.Action) == 0 {
		return fmt.Errorf("warehouse: record for %s with empty state or action", rec.Signature)
	}
	return nil
}

// ScanRecords calls fn for every retained record, families in signature
// order and records oldest first, stopping early when fn returns false.
// The warehouse lock is held for the duration: fn must be quick and must
// not call back into the warehouse. Chaos harnesses use it to assert that
// no corrupted transition survived ingest.
func (w *Warehouse) ScanRecords(fn func(Record) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	sigs := make([]string, 0, len(w.families))
	for sig := range w.families {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		for _, rec := range w.families[sig].recs {
			if !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// indexLocked adds rec to its family's in-memory index, applying retention.
func (w *Warehouse) indexLocked(rec Record) {
	fam := w.families[rec.Signature]
	if fam == nil {
		fam = &family{sig: rec.Signature, nextGen: 1}
		w.families[rec.Signature] = fam
	}
	fam.recs = append(fam.recs, rec)
	fam.appended++
	w.retained++
	if rec.Transition.Reward >= core.DefaultRewardThreshold {
		fam.high++
	}
	for len(fam.recs) > w.opts.RetainPerFamily {
		if fam.recs[0].Transition.Reward >= core.DefaultRewardThreshold {
			fam.high--
		}
		fam.recs = fam.recs[1:]
		w.retained--
	}
	w.met.retained.Set(int64(w.retained))
}

// Compact seals the active segment and rewrites the log as one compacted
// file holding only the retained records, dropping everything
// per-family retention has already aged out. The background loop calls this
// automatically once enough sealed segments accumulate.
func (w *Warehouse) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.compactLocked()
}

func (w *Warehouse) compactLocked() error {
	start := time.Now()
	sigs := make([]string, 0, len(w.families))
	for sig := range w.families {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var payloads [][]byte
	for _, sig := range sigs {
		for _, rec := range w.families[sig].recs {
			payload, err := encodeRecord(rec)
			if err != nil {
				return err
			}
			payloads = append(payloads, payload)
		}
	}
	err := w.log.compact(payloads)
	if err == nil {
		w.met.compactions.Inc()
		w.met.compactionDur.ObserveSince(start)
		w.logg.Info("log compacted", "retained_records", len(payloads), "dur", time.Since(start))
	} else {
		w.logg.Warn("log compaction failed", "err", err)
	}
	return err
}

// DonorMeta describes one trained donor generation.
type DonorMeta struct {
	Signature string `json:"signature"`
	// Generation numbers donors per family, starting at 1.
	Generation int `json:"generation"`
	// Records is the number of transitions the donor was trained on;
	// HighReward of them had reward >= R_th.
	Records    int `json:"records"`
	HighReward int `json:"high_reward"`
	// Iters is the number of gradient updates performed.
	Iters     int       `json:"iters"`
	TrainedAt time.Time `json:"trained_at"`
}

// FamilyStats summarizes one workload family for the stats endpoint.
type FamilyStats struct {
	Signature  string `json:"signature"`
	Records    int    `json:"records"`
	HighReward int    `json:"high_reward"`
	Appended   int    `json:"appended"`
	// Remote counts replicated records shipped from fleet peers; they feed
	// donor training alongside the local Records.
	Remote      int        `json:"remote,omitempty"`
	Donors      int        `json:"donors"`
	Training    bool       `json:"training,omitempty"`
	LatestDonor *DonorMeta `json:"latest_donor,omitempty"`
}

// Stats is a point-in-time snapshot of the warehouse.
type Stats struct {
	Dir      string        `json:"dir"`
	Records  int           `json:"records"`
	Families []FamilyStats `json:"families"`
	// Segments and LogBytes describe the on-disk log (including the
	// compacted file, if any).
	Segments int   `json:"segments"`
	LogBytes int64 `json:"log_bytes"`
	// RecoveredRecords, TruncatedBytes and DroppedBytes report what the
	// last Open found: committed records replayed, torn tail cut off, and
	// corrupt mid-log bytes skipped.
	RecoveredRecords int   `json:"recovered_records"`
	TruncatedBytes   int64 `json:"truncated_bytes"`
	DroppedBytes     int64 `json:"dropped_bytes"`
	// TrainErrors counts failed background donor trainings.
	TrainErrors int `json:"train_errors,omitempty"`
	// Quarantined counts records the non-finite ingest guard refused (at
	// append time, while replaying an old log, or in a shipped segment).
	Quarantined int `json:"quarantined,omitempty"`
	// Remote summarizes the fleet replica index: segments shipped from
	// peers and the records they contributed.
	Remote RemoteStats `json:"remote,omitempty"`
}

// Stats reports the warehouse's current state.
func (w *Warehouse) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Stats{
		Dir:              w.opts.Dir,
		RecoveredRecords: w.recovered.Records,
		TruncatedBytes:   w.recovered.TruncatedBytes,
		DroppedBytes:     w.recovered.DroppedBytes,
		TrainErrors:      w.trainErrs,
		Quarantined:      w.quarantined,
	}
	st.Remote = w.remoteStatsLocked()
	sigs := make([]string, 0, len(w.families))
	for sig := range w.families {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fam := w.families[sig]
		fs := FamilyStats{
			Signature:  sig,
			Records:    len(fam.recs),
			HighReward: fam.high,
			Appended:   fam.appended,
			Remote:     len(w.remoteBySig[sig]),
			Donors:     len(fam.donors),
			Training:   w.training[sig],
		}
		if n := len(fam.donors); n > 0 {
			meta := fam.donors[n-1].meta
			fs.LatestDonor = &meta
		}
		st.Records += len(fam.recs)
		st.Families = append(st.Families, fs)
	}
	if entries, err := os.ReadDir(w.opts.Dir); err == nil {
		for _, e := range entries {
			if _, _, ok := parseLogName(e.Name()); !ok {
				continue
			}
			st.Segments++
			if info, err := e.Info(); err == nil {
				st.LogBytes += info.Size()
			}
		}
	}
	return st
}

// Donors lists the kept donor generations of a family, oldest first.
func (w *Warehouse) Donors(sig string) ([]DonorMeta, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fam, ok := w.families[sig]
	if !ok {
		return nil, fmt.Errorf("warehouse: %s: %w", sig, ErrUnknownFamily)
	}
	out := make([]DonorMeta, len(fam.donors))
	for i, d := range fam.donors {
		out[i] = d.meta
	}
	return out, nil
}

// encodeRecord / decodeRecord frame one Record as a self-contained gob
// stream, so recovery can decode records independently after skipping a
// corrupt region.
func encodeRecord(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("warehouse: encode record: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("warehouse: decode record: %w", err)
	}
	return rec, nil
}

// donorPath names a donor snapshot file.
func (w *Warehouse) donorPath(sig string, gen int) string {
	return filepath.Join(w.opts.Dir, fmt.Sprintf("donor-%s-g%d.snap", sig, gen))
}
