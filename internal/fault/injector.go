package fault

import (
	"container/heap"
	"sync/atomic"

	"repro/internal/ht"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fabric is the slice of the cluster an injector drives: the external
// cables, their endpoints, the shared tracer and the clock. It is
// satisfied by *core.Cluster; keeping it an interface here leaves the
// fault package free of the core dependency (core already knows the
// ActionSource shape, the injector only knows links).
type Fabric interface {
	ExternalLinks() []*ht.Link
	ExternalLinkEnds(id int) (a, b int)
	N() int
	Tracer() trace.Tracer
	Now() sim.Time
}

// opKind is one primitive timeline entry. Campaign actions expand into
// these: a flap is a train of downs and retrains, a node crash is a
// down per external cable of the node, and so on.
type opKind int

const (
	opDegrade   opKind = iota // apply runtime error-rate override
	opRestore                 // clear the override
	opDown                    // force the link down (cable pulled)
	opRetrain                 // assert warm reset: begin retraining
	opTrainDone               // training sequence completes
)

// op is one primitive mutation at an absolute time. seq breaks ties so
// same-instant ops apply in campaign (then expansion) order on every
// executor.
type op struct {
	at      sim.Time
	seq     int
	kind    opKind
	link    int
	rate    float64
	penalty sim.Time
	speed   ht.Speed // opTrainDone negotiation result
	width   int
}

// opHeap is a min-heap over (at, seq).
type opHeap []op

func (h opHeap) Len() int      { return len(h) }
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h opHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *opHeap) Push(x any) { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Stats counts what an injector has done so far.
type Stats struct {
	Degrades         uint64 // error-rate overrides applied
	Restores         uint64 // overrides cleared
	Downs            uint64 // cables pulled
	Retrains         uint64 // warm resets that started a training sequence
	RetrainsAbsorbed uint64 // warm resets landing on an already-training link
	TrainsCompleted  uint64 // training sequences finished (link alive again)
}

// Injector binds a campaign to a booted cluster and replays its
// expanded timeline through the executor's action hook. It implements
// core.ActionSource: NextAction reports the earliest pending op,
// FireActions applies every op due at the given instant with the whole
// simulation parked on a clean time cut.
type Injector struct {
	fab     Fabric
	links   []*ht.Link
	pending opHeap
	seq     int
	stats   Stats
	changes []atomic.Uint64 // per link: state transitions, for Metrics
}

// NewInjector validates and expands campaign against the cluster's
// topology. Action times are clamped to land strictly after the current
// clock (boot has already consumed the first microseconds of the
// timeline), so a campaign written against t=0 still applies in order.
func NewInjector(fab Fabric, campaign *Campaign) (*Injector, error) {
	inj := &Injector{fab: fab, links: fab.ExternalLinks()}
	inj.changes = make([]atomic.Uint64, len(inj.links))
	if err := campaign.Validate(fab.N(), len(inj.links)); err != nil {
		return nil, err
	}
	floor := fab.Now() + 1
	for _, a := range campaign.actions {
		inj.expand(a, floor)
	}
	heap.Init(&inj.pending)
	return inj, nil
}

// expand turns one validated campaign action into primitive timeline
// ops. A crash downs every external link of the node; every node of a
// routable topology has at least one.
func (inj *Injector) expand(a Action, floor sim.Time) {
	at := a.at
	if at < floor {
		at = floor
	}
	switch a.kind {
	case KindDegrade:
		inj.push(op{at: at, kind: opDegrade, link: a.link, rate: a.rate, penalty: a.penalty})
		if a.dur > 0 {
			inj.push(op{at: at + a.dur, kind: opRestore, link: a.link})
		}
	case KindDown:
		inj.push(op{at: at, kind: opDown, link: a.link})
		if a.dur > 0 {
			inj.push(op{at: at + a.dur, kind: opRetrain, link: a.link})
		}
	case KindFlap:
		for i := 0; i < a.count; i++ {
			start := at + sim.Time(i)*a.period
			inj.push(op{at: start, kind: opDown, link: a.link})
			inj.push(op{at: start + a.period/2, kind: opRetrain, link: a.link})
		}
	case KindRetrainStorm:
		for i := 0; i < a.count; i++ {
			inj.push(op{at: at + sim.Time(i)*a.period, kind: opRetrain, link: a.link})
		}
	case KindCrash:
		ids := inj.nodeLinks(a.node)
		for _, id := range ids {
			inj.push(op{at: at, kind: opDown, link: id})
		}
		if a.dur > 0 {
			for _, id := range ids {
				inj.push(op{at: at + a.dur, kind: opRetrain, link: id})
			}
		}
	}
}

// nodeLinks lists the external link ids with node on either end.
func (inj *Injector) nodeLinks(node int) []int {
	var ids []int
	for id := range inj.links {
		a, b := inj.fab.ExternalLinkEnds(id)
		if a == node || b == node {
			ids = append(ids, id)
		}
	}
	return ids
}

// push appends an op during expansion; NewInjector heapifies once at
// the end. Dynamic inserts after that (retrain completions) go through
// heap.Push in apply.
func (inj *Injector) push(o op) {
	o.seq = inj.seq
	inj.seq++
	inj.pending = append(inj.pending, o)
}

// Stats returns what the injector has applied so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Metrics returns link.state_changes per link (Key.Link): how many
// health-state transitions the campaign has applied to it. It reads
// atomics, so it is safe while the simulation runs.
func (inj *Injector) Metrics() trace.Snapshot {
	s := trace.NewSnapshot()
	for id := range inj.changes {
		if v := inj.changes[id].Load(); v != 0 {
			s.Counters[trace.Key{Name: "link.state_changes", Link: id}] = v
		}
	}
	return s
}

// Pending returns how many primitive ops remain on the timeline.
func (inj *Injector) Pending() int { return len(inj.pending) }

// NextAction reports the earliest pending op's absolute time.
func (inj *Injector) NextAction() (sim.Time, bool) {
	if len(inj.pending) == 0 {
		return 0, false
	}
	return inj.pending[0].at, true
}

// FireActions applies every op due at or before now. The executor
// guarantees all partition clocks sit exactly at now with every event
// before now already executed and no worker running, so link mutations
// here are race-free and land on the identical cut in serial and
// parallel runs.
func (inj *Injector) FireActions(now sim.Time) {
	for len(inj.pending) > 0 && inj.pending[0].at <= now {
		o := heap.Pop(&inj.pending).(op)
		inj.apply(o, now)
	}
}

// apply executes one primitive op against its link, counts the
// resulting state transition and emits it as a trace event.
func (inj *Injector) apply(o op, now sim.Time) {
	l := inj.links[o.link]
	switch o.kind {
	case opDegrade:
		l.SetFaultRate(o.rate, o.penalty)
		inj.stats.Degrades++
	case opRestore:
		l.ClearFaultOverride()
		inj.stats.Restores++
	case opDown:
		l.ForceDown()
		inj.stats.Downs++
	case opRetrain:
		if !l.StartRetrain() {
			// Warm reset asserted while training is already running: the
			// shared reset wire absorbs it. No new completion, no event.
			inj.stats.RetrainsAbsorbed++
			return
		}
		inj.stats.Retrains++
		speed, width := l.RetrainTarget()
		done := op{at: now + l.TrainTime(), kind: opTrainDone, link: o.link,
			speed: speed, width: width, seq: inj.seq}
		inj.seq++
		heap.Push(&inj.pending, done)
	case opTrainDone:
		l.FinishRetrain(o.speed, o.width)
		inj.stats.TrainsCompleted++
	}
	inj.changes[o.link].Add(1)
	if tr := inj.fab.Tracer(); tr != nil {
		tr.Emit(trace.Event{
			At:    now,
			Kind:  trace.KindLinkState,
			Node:  -1,
			Link:  o.link,
			Label: l.Health().String(),
		})
	}
}
