package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"deepcat/internal/core"
)

// This file is the warehouse half of fleet segment shipping. Each node
// exposes its immutable log files (sealed segments plus the newest
// compacted file) for peers to pull, and ingests files pulled from peers
// into a per-source replica index kept beside — never inside — the local
// log. Replicated records feed donor training and warm-starting exactly
// like local ones, but they are not re-shipped (only local log files are
// served) and not re-persisted (a restart simply re-pulls, which the
// idempotent apply makes safe), so experience never echoes between nodes.

// SegmentInfo describes one shippable log file.
type SegmentInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// remoteSource is the replica index for one peer: which immutable files
// have been applied and the records each contributed. File contents never
// change after sealing, so idempotency is simply "skip names already
// applied"; a compacted file replaces the segments (and older compaction)
// it covers.
type remoteSource struct {
	segs   map[string][]Record // applied file name -> its finite records
	cmpIdx int                 // coverage of the newest applied cmp file
	seen   int                 // monotonic count of records ever applied
}

// Seal rotates the active log segment if it holds any data, so its
// contents become immutable and visible to Segments. The fleet shipper
// calls it periodically; without sealing, a quiet node's tail experience
// would never replicate.
func (w *Warehouse) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.log.seal()
}

// Segments lists the log's immutable, shippable files with their current
// sizes. Files racing a concurrent compaction may be missing from disk by
// the time a peer fetches them; the fetch then fails cleanly and the next
// sync pass picks up the compacted file instead.
func (w *Warehouse) Segments() ([]SegmentInfo, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	names := w.log.shippable()
	dir := w.opts.Dir
	w.mu.Unlock()
	infos := make([]SegmentInfo, 0, len(names))
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			continue // compacted away between listing and stat
		}
		infos = append(infos, SegmentInfo{Name: name, Size: fi.Size()})
	}
	return infos, nil
}

// SegmentPath validates a shippable file name and returns its path for
// serving. Only seg-/cmp-named files resolve, so the HTTP layer can never
// be walked into donor snapshots or anything outside the log.
func (w *Warehouse) SegmentPath(name string) (string, error) {
	if _, _, ok := parseLogName(name); !ok || name != filepath.Base(name) {
		return "", fmt.Errorf("warehouse: %q is not a log segment", name)
	}
	return filepath.Join(w.opts.Dir, name), nil
}

// HasRemoteSegment reports whether the named file from source has already
// been applied (directly, or via a compacted file covering it), so the
// shipper can skip the fetch entirely.
func (w *Warehouse) HasRemoteSegment(source, name string) bool {
	idx, _, ok := parseLogName(name)
	if !ok {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	src := w.remote[source]
	if src == nil {
		return false
	}
	if _, done := src.segs[name]; done {
		return true
	}
	return idx <= src.cmpIdx
}

// IngestRemoteSegment applies one immutable log file pulled from a peer:
// frames are CRC-validated, records decoded, non-finite transitions
// quarantined, and the survivors indexed under the source's replica set.
// The apply is idempotent by (source, file name) — re-shipping a segment
// changes nothing — and a compacted file atomically replaces the segments
// it covers, so a source compacting between pulls never double-counts.
// It returns how many records the file contributed and whether it was
// newly applied.
func (w *Warehouse) IngestRemoteSegment(source, name string, data []byte) (int, bool, error) {
	if source == "" {
		return 0, false, fmt.Errorf("warehouse: remote segment without source")
	}
	idx, compacted, ok := parseLogName(name)
	if !ok {
		return 0, false, fmt.Errorf("warehouse: %q is not a log segment", name)
	}
	// Decode outside the lock; a multi-megabyte segment should not stall
	// ingest from live sessions.
	payloads, _, dropped := parseFrames(data)
	var recs []Record
	var quarantined int
	for _, payload := range payloads {
		rec, err := decodeRecord(payload)
		if err != nil || validateRecord(rec) != nil || rec.Transition.Check() != nil {
			quarantined++
			continue
		}
		rec.Transition = rec.Transition.Clone()
		recs = append(recs, rec)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, false, ErrClosed
	}
	src := w.remote[source]
	if src == nil {
		src = &remoteSource{segs: make(map[string][]Record)}
		w.remote[source] = src
	}
	if _, done := src.segs[name]; done || idx <= src.cmpIdx {
		return 0, false, nil // already applied, directly or via compaction
	}
	if compacted {
		// The compacted file supersedes every segment (and older cmp) with
		// index <= idx: drop their records before applying, so the replica
		// set matches the source's own post-compaction log.
		for applied, old := range src.segs {
			oldIdx, _, ok := parseLogName(applied)
			if !ok || oldIdx > idx {
				continue
			}
			w.unindexRemoteLocked(old)
			delete(src.segs, applied)
		}
		src.cmpIdx = idx
	}
	if quarantined > 0 {
		w.quarantined += quarantined
		w.met.quarantined.Add(uint64(quarantined))
		w.logg.Warn("remote records quarantined", "source", source, "segment", name,
			"records", quarantined)
	}
	if dropped > 0 {
		w.logg.Warn("remote segment carried corrupt bytes", "source", source,
			"segment", name, "dropped_bytes", dropped)
	}
	kept := recs[:0]
	for _, rec := range recs {
		if !w.remoteDimsOKLocked(rec) {
			w.quarantined++
			w.met.quarantined.Inc()
			w.logg.Warn("remote record quarantined", "source", source, "segment", name,
				"signature", rec.Signature, "reason", "dimension mismatch")
			continue
		}
		kept = append(kept, rec)
	}
	src.segs[name] = kept
	src.seen += len(kept)
	w.indexRemoteLocked(kept)
	return len(kept), true, nil
}

// remoteDimsOKLocked rejects a replicated record whose state/action shape
// contradicts what the family already holds — the same guard AppendBatch
// applies to local ingest.
func (w *Warehouse) remoteDimsOKLocked(rec Record) bool {
	fam := w.families[rec.Signature]
	if fam != nil && len(fam.recs) > 0 {
		prev := fam.recs[len(fam.recs)-1].Transition
		return len(prev.State) == len(rec.Transition.State) &&
			len(prev.Action) == len(rec.Transition.Action)
	}
	if rs := w.remoteBySig[rec.Signature]; len(rs) > 0 {
		prev := rs[0].Transition
		return len(prev.State) == len(rec.Transition.State) &&
			len(prev.Action) == len(rec.Transition.Action)
	}
	return true
}

// indexRemoteLocked adds applied records to the per-signature replica
// index, creating family entries for signatures this node has never seen
// locally so they become eligible for donor training.
func (w *Warehouse) indexRemoteLocked(recs []Record) {
	for i := range recs {
		rec := recs[i]
		w.remoteBySig[rec.Signature] = append(w.remoteBySig[rec.Signature], rec)
		if rec.Transition.Reward >= core.DefaultRewardThreshold {
			w.remoteHigh[rec.Signature]++
		}
		if w.families[rec.Signature] == nil {
			w.families[rec.Signature] = &family{sig: rec.Signature, nextGen: 1}
		}
	}
}

// unindexRemoteLocked removes a replaced file's records from the
// per-signature index (compaction replacement path).
func (w *Warehouse) unindexRemoteLocked(recs []Record) {
	for i := range recs {
		rec := recs[i]
		rs := w.remoteBySig[rec.Signature]
		for j := range rs {
			if sameRecord(rs[j], rec) {
				rs = append(rs[:j], rs[j+1:]...)
				break
			}
		}
		if len(rs) == 0 {
			delete(w.remoteBySig, rec.Signature)
		} else {
			w.remoteBySig[rec.Signature] = rs
		}
		if rec.Transition.Reward >= core.DefaultRewardThreshold {
			w.remoteHigh[rec.Signature]--
		}
	}
}

// sameRecord reports whether two records are the same logged experience;
// pointer identity on the cloned state slice is exact because every
// applied record's slices are cloned once at ingest and never copied.
func sameRecord(a, b Record) bool {
	return len(a.Transition.State) > 0 && len(b.Transition.State) > 0 &&
		&a.Transition.State[0] == &b.Transition.State[0]
}

// remoteRecordsLocked returns the replicated records of one signature in a
// deterministic order (sources sorted by name; within a source, the stable
// apply order).
func (w *Warehouse) remoteRecordsLocked(sig string) []Record {
	rs := w.remoteBySig[sig]
	if len(rs) == 0 {
		return nil
	}
	return rs
}

// remoteSeenLocked returns the monotonic count of records ever applied
// from peers; dueFamiliesLocked folds it into the retraining trigger.
func (w *Warehouse) remoteSeenLocked() int {
	total := 0
	for _, src := range w.remote {
		total += src.seen
	}
	return total
}

// RemoteStats summarizes the replica index for Stats.
type RemoteStats struct {
	// Sources is the number of peers that have shipped at least one
	// segment; Segments and Records count what they contributed.
	Sources  int `json:"sources"`
	Segments int `json:"segments"`
	Records  int `json:"records"`
}

func (w *Warehouse) remoteStatsLocked() RemoteStats {
	var st RemoteStats
	for _, src := range w.remote {
		st.Sources++
		st.Segments += len(src.segs)
		for _, recs := range src.segs {
			st.Records += len(recs)
		}
	}
	return st
}

// RemoteSources lists the peer identifiers that have shipped segments,
// sorted; tests use it to assert replication reached a node.
func (w *Warehouse) RemoteSources() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.remote))
	for s := range w.remote {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
