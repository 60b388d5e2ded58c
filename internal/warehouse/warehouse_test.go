package warehouse

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"deepcat/internal/rl"
)

// testOptions returns small, trainer-disabled options over a temp dir.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:              t.TempDir(),
		SegmentMaxBytes:  2048, // a handful of records per segment
		TrainIters:       16,
		MinFamilyRecords: 4,
		TrainMinNew:      1,
	}
}

// makeRecords builds deterministic synthetic experience for one family.
// Rewards alternate around zero so both RDPER pools get members.
func makeRecords(sig string, n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		state := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		action := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		next := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		recs[i] = Record{
			Signature: sig,
			Session:   "s-test",
			Transition: rl.Transition{
				State:     state,
				Action:    action,
				Reward:    float64(i%5)/4 - 0.5, // -0.5 .. +0.5
				NextState: next,
				Done:      i%5 == 4,
			},
		}
	}
	return recs
}

func mustOpen(t *testing.T, opts Options) *Warehouse {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	opts := testOptions(t)
	w := mustOpen(t, opts)
	recs := makeRecords("a.TS.1", 40, 1)
	if err := w.AppendBatch(recs[:25]); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[25:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Records != 40 || len(st.Families) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.Families[0]; got.Signature != "a.TS.1" || got.HighReward != 24 {
		// rewards 0, +0.25, +0.5 are >= 0: 3 of every 5.
		t.Fatalf("family stats = %+v", got)
	}
	if st.Segments < 2 {
		t.Fatalf("want rotation across >= 2 segments, got %d", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen recovers everything in order.
	w2 := mustOpen(t, opts)
	defer w2.Close()
	st2 := w2.Stats()
	if st2.Records != 40 || st2.RecoveredRecords != 40 || st2.TruncatedBytes != 0 {
		t.Fatalf("recovered stats = %+v", st2)
	}
	fam := w2.families["a.TS.1"]
	for i, rec := range fam.recs {
		if rec.Transition.Reward != recs[i].Transition.Reward || rec.Session != "s-test" {
			t.Fatalf("record %d changed across recovery: %+v", i, rec)
		}
	}
}

// TestKillNineRecovery is the crash acceptance test: the warehouse is
// abandoned without Close (as kill -9 would), the active segment gets a
// torn tail record (half-written frame) as an interrupted append would
// leave, and a reopen must recover all committed records, truncate the torn
// tail, and train a donor from the recovered data.
func TestKillNineRecovery(t *testing.T) {
	opts := testOptions(t)
	w := mustOpen(t, opts)
	if err := w.AppendBatch(makeRecords("a.TS.1", 30, 2)); err != nil {
		t.Fatal(err)
	}
	// Abandon w without Close: the OS keeps everything already written.
	activePath := filepath.Join(opts.Dir, segmentName(w.log.activeIdx))

	// Simulate the torn tail of an append interrupted by the crash: a full
	// header promising more payload than follows.
	payload, err := encodeRecord(makeRecords("a.TS.1", 1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(hdr[:], payload[:len(payload)/2]...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	preSize := fileSize(t, activePath)

	w2 := mustOpen(t, opts)
	st := w2.Stats()
	if st.Records != 30 || st.RecoveredRecords != 30 {
		t.Fatalf("recovered %d records, want 30 (%+v)", st.Records, st)
	}
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(torn))
	}
	if got := fileSize(t, activePath); got != preSize-int64(len(torn)) {
		t.Fatalf("active segment is %d bytes after truncation, want %d", got, preSize-int64(len(torn)))
	}

	// The trainer resumes from the recovered data and new appends land on a
	// clean frame boundary.
	meta, err := w2.TrainFamily("a.TS.1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 30 || meta.Iters != 16 || meta.Generation != 1 {
		t.Fatalf("donor meta = %+v", meta)
	}
	if err := w2.Append(makeRecords("a.TS.1", 1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := mustOpen(t, opts)
	defer w3.Close()
	if st := w3.Stats(); st.Records != 31 {
		t.Fatalf("after truncation + append, recovered %d records, want 31", st.Records)
	}
}

// TestCRCCorruptionDetected flips one payload byte of the tail record and
// expects recovery to drop exactly that record.
func TestCRCCorruptionDetected(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentMaxBytes = 1 << 20 // keep every record in one segment
	w := mustOpen(t, opts)
	if err := w.AppendBatch(makeRecords("a.WC.2", 10, 5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opts.Dir, segmentName(w.log.activeIdx))
	// Abandon without Close, then flip a byte inside the last record's
	// payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, opts)
	defer w2.Close()
	st := w2.Stats()
	if st.Records != 9 {
		t.Fatalf("recovered %d records after CRC corruption, want 9", st.Records)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("corrupted tail record was not truncated: %+v", st)
	}
}

func TestCompactionRetainsNewestPerFamily(t *testing.T) {
	opts := testOptions(t)
	opts.RetainPerFamily = 12
	w := mustOpen(t, opts)
	if err := w.AppendBatch(makeRecords("a.TS.1", 40, 6)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(makeRecords("a.KM.3", 5, 7)); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if before.Families[1].Records != 12 {
		t.Fatalf("retention did not trim in memory: %+v", before.Families)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.LogBytes >= before.LogBytes {
		t.Fatalf("compaction grew the log: %d -> %d bytes", before.LogBytes, after.LogBytes)
	}
	names := logFiles(t, opts.Dir)
	var cmp int
	for _, n := range names {
		if strings.HasPrefix(n, "cmp-") {
			cmp++
		}
	}
	if cmp != 1 {
		t.Fatalf("want exactly one compacted file, got %v", names)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the compacted log sees only the retained records, with
	// the newest kept.
	w2 := mustOpen(t, opts)
	defer w2.Close()
	fam := w2.families["a.TS.1"]
	if len(fam.recs) != 12 {
		t.Fatalf("recovered %d TS records, want 12", len(fam.recs))
	}
	want := makeRecords("a.TS.1", 40, 6)[28:]
	for i, rec := range fam.recs {
		if rec.Transition.Reward != want[i].Transition.Reward {
			t.Fatalf("compaction kept wrong records at %d", i)
		}
	}
	if got := len(w2.families["a.KM.3"].recs); got != 5 {
		t.Fatalf("recovered %d KM records, want 5", got)
	}
}

func TestTrainFamilyDonorLifecycle(t *testing.T) {
	opts := testOptions(t)
	opts.DonorKeep = 2
	w := mustOpen(t, opts)
	if _, err := w.TrainFamily("a.TS.1"); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("training an unknown family = %v, want ErrUnknownFamily", err)
	}
	if err := w.AppendBatch(makeRecords("a.TS.1", 20, 8)); err != nil {
		t.Fatal(err)
	}
	var gens []int
	for g := 1; g <= 3; g++ {
		meta, err := w.TrainFamily("a.TS.1")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Generation != g {
			t.Fatalf("generation %d, want %d", meta.Generation, g)
		}
		gens = append(gens, meta.Generation)
	}
	donors, err := w.Donors("a.TS.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(donors) != 2 || donors[0].Generation != 2 || donors[1].Generation != 3 {
		t.Fatalf("DonorKeep=2 kept %+v, want generations 2 and 3", donors)
	}
	// Pruned generations are gone from disk too.
	var onDisk []int
	entries, _ := os.ReadDir(opts.Dir)
	for _, e := range entries {
		if g := parseDonorGen(e.Name()); g > 0 {
			onDisk = append(onDisk, g)
		}
	}
	sort.Ints(onDisk)
	if len(onDisk) != 2 || onDisk[0] != 2 || onDisk[1] != 3 {
		t.Fatalf("donor files on disk: %v, want [2 3] (train order %v)", onDisk, gens)
	}

	ws, ok := w.WarmStart("a.TS.1", 0, 8)
	if !ok {
		t.Fatal("WarmStart found no donor")
	}
	if ws.Donor.Generation != 3 || ws.Snap == nil {
		t.Fatalf("warm start donor = %+v", ws.Donor)
	}
	if len(ws.Seeds) != 8 {
		t.Fatalf("warm start returned %d seeds, want 8", len(ws.Seeds))
	}
	for _, tr := range ws.Seeds {
		if tr.Reward < 0 {
			t.Fatalf("seed with reward %g below threshold", tr.Reward)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Donors survive a restart and WarmStart works without retraining.
	w2 := mustOpen(t, opts)
	defer w2.Close()
	ws2, ok := w2.WarmStart("a.TS.1", 0, 4)
	if !ok || ws2.Donor.Generation != 3 || len(ws2.Seeds) != 4 {
		t.Fatalf("post-restart warm start = %+v ok=%v", ws2.Donor, ok)
	}
	if _, ok := w2.WarmStart("b.TS.1", 0, 4); ok {
		t.Fatal("warm start for an unknown signature should miss")
	}
}

func TestBackgroundTrainerProducesDonors(t *testing.T) {
	opts := testOptions(t)
	opts.TrainInterval = 10 * time.Millisecond
	opts.TrainIters = 8
	w := mustOpen(t, opts)
	defer w.Close()
	if err := w.AppendBatch(makeRecords("a.PR.1", 16, 9)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if donors, err := w.Donors("a.PR.1"); err == nil && len(donors) > 0 {
			if donors[0].Records != 16 {
				t.Fatalf("background donor = %+v", donors[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background trainer produced no donor; stats %+v", w.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAppendValidation(t *testing.T) {
	w := mustOpen(t, testOptions(t))
	defer w.Close()
	if err := w.Append(Record{}); err == nil {
		t.Fatal("empty record accepted")
	}
	good := makeRecords("a.TS.1", 1, 10)[0]
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	bad := makeRecords("a.TS.1", 1, 11)[0]
	bad.Transition.State = []float64{1} // dimension mismatch within a family
	if err := w.Append(bad); err == nil {
		t.Fatal("dimension-mismatched record accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(good); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, _, ok := parseLogName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestQuarantineNonFiniteIngest verifies the ingest guard: records carrying
// NaN/Inf anywhere in the transition are counted and dropped — never logged,
// indexed or replayed — while finite records in the same batch survive.
func TestQuarantineNonFiniteIngest(t *testing.T) {
	opts := testOptions(t)
	w := mustOpen(t, opts)
	recs := makeRecords("a.TS.1", 6, 1)
	recs[1].Transition.Reward = math.NaN()
	recs[3].Transition.State[0] = math.Inf(1)
	recs[4].Transition.NextState[2] = math.Inf(-1)
	if err := w.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 3 || st.Quarantined != 3 {
		t.Fatalf("stats after poisoned batch = records %d quarantined %d, want 3/3", st.Records, st.Quarantined)
	}
	var scanned int
	if err := w.ScanRecords(func(rec Record) bool {
		if rec.Transition.Check() != nil {
			t.Fatalf("non-finite record survived ingest: %+v", rec)
		}
		scanned++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != 3 {
		t.Fatalf("ScanRecords visited %d records, want 3", scanned)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the quarantined records were never committed to the WAL.
	w2 := mustOpen(t, opts)
	defer w2.Close()
	if st := w2.Stats(); st.Records != 3 || st.RecoveredRecords != 3 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

// TestQuarantineOnReplay verifies a WAL written before the ingest guard
// existed (simulated by appending a raw non-finite payload directly) is
// cleansed at Open: the poisoned record is quarantined, not indexed.
func TestQuarantineOnReplay(t *testing.T) {
	opts := testOptions(t)
	w := mustOpen(t, opts)
	if err := w.AppendBatch(makeRecords("a.TS.1", 4, 1)); err != nil {
		t.Fatal(err)
	}
	// Bypass AppendBatch's guard the way an old build would have.
	bad := makeRecords("a.TS.1", 1, 2)[0]
	bad.Transition.Reward = math.Inf(1)
	payload, err := encodeRecord(bad)
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	err = w.log.append(payload)
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, opts)
	defer w2.Close()
	st := w2.Stats()
	if st.Records != 4 || st.Quarantined != 1 || st.RecoveredRecords != 4 {
		t.Fatalf("replay stats = records %d quarantined %d recovered %d, want 4/1/4",
			st.Records, st.Quarantined, st.RecoveredRecords)
	}
}

// TestTrainDonorFiltersNonFinite verifies the trainer's belt-and-braces
// filter: handed an in-memory slice containing a poisoned record, training
// proceeds on the finite remainder.
func TestTrainDonorFiltersNonFinite(t *testing.T) {
	opts := testOptions(t)
	w := mustOpen(t, opts)
	defer w.Close()
	recs := makeRecords("a.TS.1", 8, 1)
	recs[2].Transition.Action[0] = math.NaN()
	meta, _, err := w.trainDonor("a.TS.1", 1, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 7 {
		t.Fatalf("donor trained on %d records, want 7 (poisoned one filtered)", meta.Records)
	}

	all := makeRecords("a.TS.1", 2, 3)
	for i := range all {
		all[i].Transition.Reward = math.NaN()
	}
	if _, _, err := w.trainDonor("a.TS.1", 2, all, 0); err == nil {
		t.Fatal("training on all-poisoned records succeeded")
	}
}

// TestDivergedDonorRefused trains a donor on finite but enormous rewards,
// which drive the critics' weights to NaN. The trainer must refuse to save
// it: the training counts as failed and the family keeps no donor, on disk
// or in memory.
func TestDivergedDonorRefused(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, TrainIters: 50})
	defer w.Close()
	recs := makeRecords("a.TS.1", 64, 1)
	for i := range recs {
		recs[i].Transition.Reward = math.MaxFloat64
	}
	if err := w.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TrainFamily("a.TS.1"); err == nil {
		t.Fatal("diverged donor trained without error")
	}
	if ds, _ := w.Donors("a.TS.1"); len(ds) != 0 {
		t.Fatalf("diverged donor kept: %+v", ds)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "donor-*.snap")); len(files) != 0 {
		t.Fatalf("diverged donor written: %v", files)
	}
}

// parseDonorGen extracts the generation from a donor file name, returning
// 0 when the name does not parse.
func parseDonorGen(name string) int {
	if !strings.HasPrefix(name, "donor-") || !strings.HasSuffix(name, ".snap") {
		return 0
	}
	base := strings.TrimSuffix(name, ".snap")
	i := strings.LastIndex(base, "-g")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(base[i+2:])
	if err != nil {
		return 0
	}
	return n
}
