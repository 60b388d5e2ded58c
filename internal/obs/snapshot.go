package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// HistogramSnapshot is a histogram's point-in-time value: raw (non-
// cumulative) per-bucket counts over the bucket bounds, plus the running
// count and sum. Two snapshots merge bucket-wise only when their bound
// layouts are identical.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	// Counts has len(Bounds)+1 entries; the last is the +Inf bucket.
	Counts []uint64 `json:"counts,omitempty"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
}

// Quantile estimates the q-quantile of the snapshotted values with the
// routine Histogram.Quantile uses, so a dashboard computing p99 from a
// merged fleet snapshot agrees with a single shard computing it live.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(q, h.Bounds, h.Count, func(i int) uint64 { return h.Counts[i] })
}

// InstrumentSnapshot is one instrument's point-in-time value. Exactly one
// of Value (counter), Gauge/GaugeMax (gauge) or Histogram is meaningful,
// per Kind.
type InstrumentSnapshot struct {
	Name string `json:"name"`
	// Labels is the rendered label set (`k="v",k2="v2"`), "" for none; it
	// is part of the instrument's identity for merging.
	Labels string `json:"labels,omitempty"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`

	// Value is the counter total; merging sums it.
	Value uint64 `json:"value,omitempty"`
	// Gauge is the gauge value; merging sums it (an in-flight or queue-depth
	// gauge aggregated fleet-wide is the fleet's total). GaugeMax tracks the
	// largest single contribution across merged snapshots, for gauges where
	// the hottest shard matters more than the sum.
	Gauge    int64 `json:"gauge,omitempty"`
	GaugeMax int64 `json:"gauge_max,omitempty"`

	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

func (ins InstrumentSnapshot) key() string { return ins.Name + "{" + ins.Labels + "}" }

// Snapshot is a mergeable point-in-time copy of a registry: the JSON wire
// format of the per-shard scrape endpoint and the value type the fleet
// aggregator sums. The zero value is an empty snapshot ready to Merge into.
type Snapshot struct {
	Instruments []InstrumentSnapshot `json:"instruments"`
}

// Snapshot captures every registered instrument, sorted by name then
// labels. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	all := make([]*instrument, 0, len(r.instruments))
	for _, ins := range r.instruments {
		all = append(all, ins)
	}
	r.mu.Unlock()
	snap := Snapshot{Instruments: make([]InstrumentSnapshot, 0, len(all))}
	for _, ins := range all {
		out := InstrumentSnapshot{Name: ins.name, Labels: ins.labels, Kind: ins.kind.String()}
		switch ins.kind {
		case kindCounter:
			out.Value = ins.c.Value()
		case kindGauge:
			v := ins.g.Value()
			out.Gauge, out.GaugeMax = v, v
		default:
			h := &HistogramSnapshot{
				Bounds: append([]float64(nil), ins.h.bounds...),
				Counts: make([]uint64, len(ins.h.counts)),
			}
			for i := range ins.h.counts {
				h.Counts[i] = ins.h.counts[i].Load()
			}
			h.Count = ins.h.Count()
			h.Sum = ins.h.Sum()
			out.Histogram = h
		}
		snap.Instruments = append(snap.Instruments, out)
	}
	snap.sort()
	return snap
}

func (s *Snapshot) sort() {
	sort.Slice(s.Instruments, func(i, j int) bool {
		if s.Instruments[i].Name != s.Instruments[j].Name {
			return s.Instruments[i].Name < s.Instruments[j].Name
		}
		return s.Instruments[i].Labels < s.Instruments[j].Labels
	})
}

// Merge folds other into s: counters sum, gauges sum (tracking the max
// single contribution), histograms add bucket-wise. Instruments unknown to
// s are appended. It fails — leaving s partially merged only past the
// failing instrument — when the same name+labels carries different kinds or
// histogram bucket layouts on the two sides; shards of one fleet build
// their registries from the same code, so a mismatch means the scrape mixed
// incompatible builds and summing would silently corrupt the result.
func (s *Snapshot) Merge(other Snapshot) error {
	idx := make(map[string]int, len(s.Instruments))
	for i, ins := range s.Instruments {
		idx[ins.key()] = i
	}
	for _, in := range other.Instruments {
		i, ok := idx[in.key()]
		if !ok {
			cp := in
			if in.Histogram != nil {
				cp.Histogram = &HistogramSnapshot{
					Bounds: append([]float64(nil), in.Histogram.Bounds...),
					Counts: append([]uint64(nil), in.Histogram.Counts...),
					Count:  in.Histogram.Count,
					Sum:    in.Histogram.Sum,
				}
			}
			idx[cp.key()] = len(s.Instruments)
			s.Instruments = append(s.Instruments, cp)
			continue
		}
		dst := &s.Instruments[i]
		if dst.Kind != in.Kind {
			return fmt.Errorf("obs: merge %s: kind %s vs %s", in.key(), dst.Kind, in.Kind)
		}
		switch dst.Kind {
		case "counter":
			dst.Value += in.Value
		case "gauge":
			dst.Gauge += in.Gauge
			if in.GaugeMax > dst.GaugeMax {
				dst.GaugeMax = in.GaugeMax
			}
		case "histogram":
			if err := dst.Histogram.merge(in.Histogram, in.key()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("obs: merge %s: unknown kind %q", in.key(), in.Kind)
		}
	}
	s.sort()
	return nil
}

// merge adds other into h bucket-wise; layouts must match exactly.
func (h *HistogramSnapshot) merge(other *HistogramSnapshot, key string) error {
	if other == nil {
		return fmt.Errorf("obs: merge %s: histogram instrument without histogram value", key)
	}
	if len(other.Bounds) != len(h.Bounds) {
		return fmt.Errorf("obs: merge %s: bucket layout mismatch: %d bounds vs %d",
			key, len(h.Bounds), len(other.Bounds))
	}
	for i, b := range other.Bounds {
		if b != h.Bounds[i] {
			return fmt.Errorf("obs: merge %s: bucket layout mismatch at bound %d: %g vs %g",
				key, i, h.Bounds[i], b)
		}
	}
	if len(other.Counts) != len(h.Counts) {
		return fmt.Errorf("obs: merge %s: bucket layout mismatch: %d counts vs %d",
			key, len(h.Counts), len(other.Counts))
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Count += other.Count
	h.Sum += other.Sum
	return nil
}

// SetGauge sets (adding if absent) a gauge instrument in the snapshot; the
// fleet aggregator uses it to annotate a merged snapshot with per-shard
// availability markers that ride the same exposition writer.
func (s *Snapshot) SetGauge(name string, value int64, labels ...string) {
	ls := renderLabels(labels)
	for i := range s.Instruments {
		if s.Instruments[i].Name == name && s.Instruments[i].Labels == ls {
			s.Instruments[i].Gauge = value
			s.Instruments[i].GaugeMax = value
			return
		}
	}
	s.Instruments = append(s.Instruments, InstrumentSnapshot{
		Name: name, Labels: ls, Kind: "gauge", Gauge: value, GaugeMax: value,
	})
	s.sort()
}

// CounterTotal sums every counter named name across its label sets; a
// dashboard's "total requests" over `deepcat_http_requests_total{endpoint,
// code}` is one call.
func (s Snapshot) CounterTotal(name string) uint64 {
	var total uint64
	for _, ins := range s.Instruments {
		if ins.Name == name && ins.Kind == "counter" {
			total += ins.Value
		}
	}
	return total
}

// GaugeValue returns the summed value of the gauge family name (all label
// sets), and whether any instrument matched.
func (s Snapshot) GaugeValue(name string) (int64, bool) {
	var total int64
	found := false
	for _, ins := range s.Instruments {
		if ins.Name == name && ins.Kind == "gauge" {
			total += ins.Gauge
			found = true
		}
	}
	return total, found
}

// HistogramTotal merges every histogram named name across its label sets
// into one (nil when none match or layouts differ): the fleet-wide latency
// distribution of an endpoint family.
func (s Snapshot) HistogramTotal(name string) *HistogramSnapshot {
	var total *HistogramSnapshot
	for _, ins := range s.Instruments {
		if ins.Name != name || ins.Kind != "histogram" || ins.Histogram == nil {
			continue
		}
		if total == nil {
			total = &HistogramSnapshot{
				Bounds: append([]float64(nil), ins.Histogram.Bounds...),
				Counts: append([]uint64(nil), ins.Histogram.Counts...),
				Count:  ins.Histogram.Count,
				Sum:    ins.Histogram.Sum,
			}
			continue
		}
		if total.merge(ins.Histogram, name) != nil {
			return nil
		}
	}
	return total
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format — identical, byte for byte, to what the live registry it was taken
// from would expose.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var lastFamily string
	for i := range s.Instruments {
		ins := &s.Instruments[i]
		if ins.Name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ins.Name, ins.Kind); err != nil {
				return err
			}
			lastFamily = ins.Name
		}
		if err := writeSnapshotInstrument(w, ins); err != nil {
			return err
		}
	}
	return nil
}

func writeSnapshotInstrument(w io.Writer, ins *InstrumentSnapshot) error {
	suffix := ""
	if ins.Labels != "" {
		suffix = "{" + ins.Labels + "}"
	}
	switch ins.Kind {
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %d\n", ins.Name, suffix, ins.Value)
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s%s %d\n", ins.Name, suffix, ins.Gauge)
		return err
	}
	h := ins.Histogram
	if h == nil {
		return fmt.Errorf("obs: instrument %s%s: histogram kind without histogram value", ins.Name, suffix)
	}
	sep := ""
	if ins.Labels != "" {
		sep = ins.Labels + ","
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", ins.Name, sep, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", ins.Name, sep, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", ins.Name, suffix, formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", ins.Name, suffix, h.Count)
	return err
}

// SnapshotHandler serves the registry's snapshot as JSON; the tuning port
// mounts it so fleet peers can scrape and merge per-shard metrics without
// reaching each shard's (optional, separately bound) ops listener. A nil
// registry serves an empty snapshot.
func (r *Registry) SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
}
