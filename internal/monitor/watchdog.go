package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Alert is one raised watchdog incident. Alerts latch: a rule that
// keeps violating across consecutive windows extends the same Alert
// rather than raising a new one per window, so each incident fires
// callbacks exactly once on raise and once on resolve.
type Alert struct {
	Rule       string    `json:"rule"`
	Target     trace.Key `json:"target"`
	Message    string    `json:"message"`
	RaisedAt   sim.Time  `json:"raised_at_ps"`
	ResolvedAt sim.Time  `json:"resolved_at_ps,omitempty"` // zero while active
}

// Active reports whether the alert is unresolved.
func (a Alert) Active() bool { return a.ResolvedAt == 0 }

// Finding is one rule violation in one window.
type Finding struct {
	Target  trace.Key
	Message string
}

// Rule inspects each closed window and reports the targets currently in
// violation. Rules may keep per-target state (consecutive-window
// streaks); Evaluate always runs on the simulation goroutine, in
// deterministic window order, so rules need no locking.
type Rule interface {
	Name() string
	Evaluate(w Window) []Finding
}

// Watchdog runs a rule set over each window and manages alert
// lifecycles: raise on the first violating window, hold while the
// violation persists, resolve on the first clean one.
type Watchdog struct {
	mu       sync.Mutex
	rules    []Rule
	active   map[alertID]*Alert
	history  []Alert // resolved incidents, most recent last, bounded
	raised   uint64
	resolved uint64
	onAlert  []func(Alert)
	tracer   trace.Tracer
}

type alertID struct {
	rule   string
	target trace.Key
}

const maxHistory = 128

// NewWatchdog returns a watchdog with the given rules.
func NewWatchdog(rules ...Rule) *Watchdog {
	return &Watchdog{rules: rules, active: make(map[alertID]*Alert)}
}

// SetRules replaces the rule set.
func (d *Watchdog) SetRules(rules []Rule) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rules = rules
}

// OnAlert registers a callback fired on every raise and resolve, on the
// simulation goroutine.
func (d *Watchdog) OnAlert(fn func(Alert)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onAlert = append(d.onAlert, fn)
}

// SetTracer routes alert lifecycle events into a trace.Tracer.
func (d *Watchdog) SetTracer(t trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = t
}

// Evaluate runs every rule over w, raising and resolving alerts, and
// returns the alerts newly raised by this window.
func (d *Watchdog) Evaluate(w Window) []Alert {
	d.mu.Lock()
	var newly []Alert
	var fired []Alert // raise + resolve, for callbacks outside the lock
	seen := make(map[alertID]bool)
	for _, r := range d.rules {
		findings := r.Evaluate(w)
		sort.Slice(findings, func(i, j int) bool {
			return keyLess(findings[i].Target, findings[j].Target)
		})
		for _, f := range findings {
			id := alertID{rule: r.Name(), target: f.Target}
			seen[id] = true
			if _, ok := d.active[id]; ok {
				continue // incident already raised; no flapping
			}
			a := &Alert{Rule: r.Name(), Target: f.Target, Message: f.Message,
				RaisedAt: w.End}
			d.active[id] = a
			d.raised++
			newly = append(newly, *a)
			fired = append(fired, *a)
			d.emit(trace.KindAlert, *a)
		}
	}
	// Any active alert whose rule reported no finding this window has
	// recovered.
	ids := make([]alertID, 0, len(d.active))
	for id := range d.active {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].rule != ids[j].rule {
			return ids[i].rule < ids[j].rule
		}
		return keyLess(ids[i].target, ids[j].target)
	})
	for _, id := range ids {
		a := d.active[id]
		delete(d.active, id)
		a.ResolvedAt = w.End
		d.resolved++
		d.history = append(d.history, *a)
		if len(d.history) > maxHistory {
			d.history = d.history[len(d.history)-maxHistory:]
		}
		fired = append(fired, *a)
		d.emit(trace.KindAlertResolved, *a)
	}
	callbacks := d.onAlert
	d.mu.Unlock()
	for _, fn := range callbacks {
		for _, a := range fired {
			fn(a)
		}
	}
	return newly
}

// emit sends the alert into the tracer. Called with the lock held.
func (d *Watchdog) emit(kind trace.Kind, a Alert) {
	if d.tracer == nil {
		return
	}
	at := a.RaisedAt
	if kind == trace.KindAlertResolved {
		at = a.ResolvedAt
	}
	node, link := -1, -1
	if a.Target.Name == "node" {
		node = a.Target.Node
	}
	if a.Target.Name == "link" {
		link = a.Target.Link
	}
	d.tracer.Emit(trace.Event{
		At: at, Kind: kind, Node: node, Link: link, Src: -1, Dst: -1,
		Label: a.Rule + ": " + a.Message,
	})
}

// Active returns the currently unresolved alerts, deterministically
// ordered.
func (d *Watchdog) Active() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Alert, 0, len(d.active))
	for _, a := range d.active {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return keyLess(out[i].Target, out[j].Target)
	})
	return out
}

// History returns resolved incidents, oldest first.
func (d *Watchdog) History() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Alert(nil), d.history...)
}

// Counts returns how many alerts were ever raised and resolved.
func (d *Watchdog) Counts() (raised, resolved uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.raised, d.resolved
}

func keyLess(a, b trace.Key) bool {
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
}

// ---- Built-in rules -----------------------------------------------------

// sustainedRule raises a finding for a target only after probe reports
// it in violation for sustain consecutive windows — hysteresis against
// one-window blips. A clean window resets the target's streak.
type sustainedRule struct {
	name    string
	sustain int
	streak  map[trace.Key]int
	probe   func(w Window) map[trace.Key]string
}

func newSustainedRule(name string, sustain int, probe func(w Window) map[trace.Key]string) *sustainedRule {
	if sustain < 1 {
		sustain = 1
	}
	return &sustainedRule{name: name, sustain: sustain,
		streak: make(map[trace.Key]int), probe: probe}
}

func (r *sustainedRule) Name() string { return r.name }

func (r *sustainedRule) Evaluate(w Window) []Finding {
	viol := r.probe(w)
	for k := range r.streak {
		if _, ok := viol[k]; !ok {
			delete(r.streak, k)
		}
	}
	var out []Finding
	for k, msg := range viol {
		r.streak[k]++
		if r.streak[k] >= r.sustain {
			out = append(out, Finding{Target: k, Message: msg})
		}
	}
	return out
}

// linkKey scopes a finding to one external link.
func linkKey(link int) trace.Key { return trace.Key{Name: "link", Link: link} }

// nodeKey scopes a finding to one supernode.
func nodeKey(node int) trace.Key { return trace.Key{Name: "node", Node: node} }

// windowSeconds returns the window width in (virtual) seconds, never 0.
func windowSeconds(w Window) float64 {
	d := w.Duration()
	if d <= 0 {
		return 1e-12
	}
	return d.Seconds()
}

// CreditStallRule raises when a link's credit-stall rate exceeds
// perSecond (virtual) for sustain consecutive windows — the signature
// of a receiver that stopped draining or a chronically undersized
// buffer pool.
func CreditStallRule(perSecond float64, sustain int) Rule {
	return newSustainedRule("credit-stall", sustain, func(w Window) map[trace.Key]string {
		stalls := make(map[int]uint64)
		for k, v := range w.Delta.Counters {
			if k.Name == "port.credit_stalls" && v > 0 {
				stalls[k.Link] += v
			}
		}
		viol := make(map[trace.Key]string)
		secs := windowSeconds(w)
		for link, n := range stalls {
			if rate := float64(n) / secs; rate > perSecond {
				viol[linkKey(link)] = fmt.Sprintf(
					"link %d credit stalls at %.0f/s (threshold %.0f/s)", link, rate, perSecond)
			}
		}
		return viol
	})
}

// RingFullRule raises when a node's message-library senders report at
// least burst full-ring stalls inside one window for sustain windows
// running: a consumer is not polling fast enough for the offered load.
func RingFullRule(burst uint64, sustain int) Rule {
	return newSustainedRule("ring-full", sustain, func(w Window) map[trace.Key]string {
		viol := make(map[trace.Key]string)
		for k, v := range w.Delta.Counters {
			if k.Name == "msg.ring_full" && v >= burst {
				viol[nodeKey(k.Node)] = fmt.Sprintf(
					"node %d hit %d ring-full stalls in one window", k.Node, v)
			}
		}
		return viol
	})
}

// MasterAbortRule raises when a node decodes at least burst addresses
// to nothing within one window — a routing-table storm, the fabric
// analogue of a black-holed route.
func MasterAbortRule(burst uint64) Rule {
	return newSustainedRule("master-abort", 1, func(w Window) map[trace.Key]string {
		aborts := make(map[int]uint64)
		for k, v := range w.Delta.Counters {
			if k.Name == "nb.master_aborts" && v > 0 {
				aborts[k.Node] += v
			}
		}
		viol := make(map[trace.Key]string)
		for node, n := range aborts {
			if n >= burst {
				viol[nodeKey(node)] = fmt.Sprintf(
					"node %d master-aborted %d packets in one window", node, n)
			}
		}
		return viol
	})
}

// DeadLinkRule detects the simulated analogue of a pulled ncHT cable: a
// link that previously delivered traffic whose delivered-packet counter
// stops advancing while senders keep trying (send errors or queued
// sends with zero deliveries), or whose training state reports down,
// for sustain consecutive windows.
func DeadLinkRule(sustain int) Rule {
	return newSustainedRule("dead-link", sustain, func(w Window) map[trace.Key]string {
		type flow struct {
			attempts  uint64 // sends + send errors this window
			delivered uint64 // packets received this window
			everRecv  uint64 // packets ever delivered (totals)
		}
		links := make(map[int]*flow)
		get := func(link int) *flow {
			f := links[link]
			if f == nil {
				f = &flow{}
				links[link] = f
			}
			return f
		}
		for k, v := range w.Delta.Counters {
			switch k.Name {
			case "port.pkts_sent", "port.send_errors":
				get(k.Link).attempts += v
			case "port.pkts_recv":
				get(k.Link).delivered += v
			}
		}
		for k, v := range w.Totals.Counters {
			if k.Name == "port.pkts_recv" {
				get(k.Link).everRecv += v
			}
		}
		viol := make(map[trace.Key]string)
		for _, ls := range w.Links {
			f := links[ls.ID]
			if ls.State != "active" && f != nil && f.everRecv > 0 {
				viol[linkKey(ls.ID)] = fmt.Sprintf("link %d is %s after delivering %d packets",
					ls.ID, ls.State, f.everRecv)
			}
		}
		for link, f := range links {
			if f.everRecv > 0 && f.attempts > 0 && f.delivered == 0 {
				if _, dup := viol[linkKey(link)]; !dup {
					viol[linkKey(link)] = fmt.Sprintf(
						"link %d: %d send attempts, no deliveries", link, f.attempts)
				}
			}
		}
		return viol
	})
}

// DefaultRules is the watchdog rule set WithMonitor installs unless
// WithRules overrides it. Thresholds are deliberately loose: they catch
// a wedged fabric, not a busy one.
func DefaultRules() []Rule {
	return []Rule{
		DeadLinkRule(3),
		CreditStallRule(2e6, 5), // >2M stalls/s of virtual time, 5 windows
		RingFullRule(256, 3),
		MasterAbortRule(16),
	}
}
