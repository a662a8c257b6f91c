package trace

import (
	"fmt"
	"sort"

	"repro/internal/prof"
)

// Key identifies one metric instance: a name plus the node / link /
// channel it is scoped to. Unused dimensions stay zero; by convention
// names are dotted ("port.pkts_sent", "prof.link.ser_ps").
type Key struct {
	Name string
	Node int // supernode or rank, 0 when unscoped
	Link int // external link id, 0 when unscoped
	Chan int // channel discriminator (e.g. destination), 0 when unscoped
}

func (k Key) String() string {
	s := k.Name
	if k.Node != 0 || k.Link != 0 || k.Chan != 0 {
		s += fmt.Sprintf("{node=%d,link=%d,chan=%d}", k.Node, k.Link, k.Chan)
	}
	return s
}

// Snapshot is a point-in-time copy of counters, gauges and histograms:
// the one exchange type between the layers that count (core, msg, mpi,
// fault, serve, prof) and the monitor that samples and scrapes them.
type Snapshot struct {
	Counters   map[Key]uint64
	Gauges     map[Key]float64
	Histograms map[Key]prof.HistSnapshot
}

// NewSnapshot returns an empty snapshot ready to be filled.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[Key]uint64),
		Gauges:     make(map[Key]float64),
		Histograms: make(map[Key]prof.HistSnapshot),
	}
}

// Merge folds other into s (other wins on key collisions).
func (s Snapshot) Merge(other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[k] = v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] = v
	}
	for k, v := range other.Histograms {
		s.Histograms[k] = v
	}
}

// Keys returns every counter key in deterministic order (for rendering).
func (s Snapshot) Keys() []Key {
	keys := make([]Key, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.Chan < b.Chan
	})
	return keys
}
