// Package fault is the scripted fault-campaign subsystem: a Campaign
// describes *what* goes wrong and when (cables degrading, flapping,
// dying; nodes crashing and warm-resetting back in), and an Injector
// binds it to a booted cluster and applies each action on a clean cut
// of the simulated timeline.
//
// Determinism is the design center. Actions are not simulation events:
// an event at time T interleaves with other same-timestamp events by
// the engine's arbitration keys, which differ between the serial and
// parallel executors. Instead the Injector implements the run loop's
// ActionSource contract — the executor runs every event strictly before
// T, aligns all clocks exactly onto T, and fires the action with the
// whole cluster parked. Serial and partitioned runs therefore apply
// every fault at the identical instant and observe identical state,
// which is what lets determinism_test.go fingerprint fault scenarios
// across executors.
//
// The paper's prototype met every one of these failure modes in the
// lab: lossy HTX cables forced the link down to HT800 (§VI), pulled
// cables simply lose the path (TCCluster has no routing failover), and
// recovery is a warm reset retraining the link.
package fault

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/sim"
)

// Kind classifies one campaign action.
type Kind int

const (
	// KindDegrade raises a link's runtime error rate for a duration —
	// the marginal-cable model: every packet still arrives, link-level
	// retries eat the bandwidth.
	KindDegrade Kind = iota
	// KindDown pulls a link's cable: sends fail, queued and in-transit
	// packets complete as master-aborts, the path is gone until a
	// retrain.
	KindDown
	// KindFlap alternates a link between down and retraining — the
	// half-seated connector.
	KindFlap
	// KindRetrainStorm repeatedly asserts warm reset on a link, each
	// retrain flushing its queues — firmware gone rogue.
	KindRetrainStorm
	// KindCrash fail-stops a node from the fabric's point of view:
	// every external cable of the node drops at once.
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindDegrade:
		return "degrade"
	case KindDown:
		return "down"
	case KindFlap:
		return "flap"
	case KindRetrainStorm:
		return "retrain-storm"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Action is one scripted fault: a kind, a target (link or node), an
// absolute start time, and the kind-specific shape parameters. Build
// them with the constructors; the zero Action is invalid.
type Action struct {
	kind    Kind
	link    int // link-scoped kinds; -1 otherwise
	node    int // node-scoped kinds; -1 otherwise
	at      sim.Time
	dur     sim.Time // 0 = permanent (no recovery scheduled)
	rate    float64  // degrade error rate
	penalty sim.Time // degrade replay penalty (0 = link default)
	count   int      // flaps / storm retrains
	period  sim.Time // flap / storm period
}

// Kind returns the action's classification.
func (a Action) Kind() Kind { return a.kind }

// At returns the action's absolute start time.
func (a Action) At() sim.Time { return a.at }

// Target returns the action's target as (link, node); the index not
// applicable to the kind is -1.
func (a Action) Target() (link, node int) { return a.link, a.node }

func (a Action) String() string {
	target := fmt.Sprintf("link %d", a.link)
	if a.node >= 0 {
		target = fmt.Sprintf("node %d", a.node)
	}
	s := fmt.Sprintf("%v %s at %v", a.kind, target, a.at)
	if a.dur > 0 {
		s += fmt.Sprintf(" for %v", a.dur)
	}
	return s
}

// LinkDegrade raises external link's runtime CRC error rate to rate at
// time at. A positive dur restores the configured baseline afterwards;
// dur 0 leaves the link degraded for good. The retry penalty stays at
// the link's configured value (500 ns if none was set).
func LinkDegrade(link int, at, dur sim.Time, rate float64) Action {
	return Action{kind: KindDegrade, link: link, node: -1, at: at, dur: dur, rate: rate}
}

// LinkDegradeWithPenalty is LinkDegrade with an explicit
// resync-and-replay penalty per corrupted packet.
func LinkDegradeWithPenalty(link int, at, dur sim.Time, rate float64, penalty sim.Time) Action {
	return Action{kind: KindDegrade, link: link, node: -1, at: at, dur: dur, rate: rate, penalty: penalty}
}

// LinkDown pulls external link's cable at time at, permanently: the
// path is lost until some later action retrains the link.
func LinkDown(link int, at sim.Time) Action {
	return Action{kind: KindDown, link: link, node: -1, at: at}
}

// LinkDownFor pulls external link's cable at time at and re-seats it
// after dur: a retrain starts then, and the link carries traffic again
// one TrainTime later.
func LinkDownFor(link int, at, dur sim.Time) Action {
	return Action{kind: KindDown, link: link, node: -1, at: at, dur: dur}
}

// LinkFlap makes external link flap flaps times starting at at: each
// period begins with the cable dropping and re-seats halfway through,
// so the link oscillates between dead, retraining and (briefly) alive.
func LinkFlap(link int, at sim.Time, flaps int, period sim.Time) Action {
	return Action{kind: KindFlap, link: link, node: -1, at: at, count: flaps, period: period}
}

// RetrainStorm asserts warm reset on external link retrains times,
// period apart, starting at at. Each retrain flushes the link's queues
// and takes TrainTime; asserts landing while a training sequence is
// already running are absorbed, as on the shared physical reset wire.
func RetrainStorm(link int, at sim.Time, retrains int, period sim.Time) Action {
	return Action{kind: KindRetrainStorm, link: link, node: -1, at: at, count: retrains, period: period}
}

// NodeCrash fail-stops node at time at, permanently: every external
// cable touching the node drops at once. Cores and pollers on the node
// keep executing — the fabric just never hears from them — which is
// exactly what a peer observes of a crashed-but-powered neighbor.
func NodeCrash(node int, at sim.Time) Action {
	return Action{kind: KindCrash, link: -1, node: node, at: at}
}

// NodeCrashFor fail-stops node at at and warm-resets it back into the
// cluster after dur: every external cable of the node begins retraining
// then, and the node is reachable again one TrainTime later.
func NodeCrashFor(node int, at, dur sim.Time) Action {
	return Action{kind: KindCrash, link: -1, node: node, at: at, dur: dur}
}

// Campaign is an immutable script of fault actions.
type Campaign struct {
	actions []Action
}

// NewCampaign collects actions into a campaign. Order does not matter;
// the injector sorts the expanded timeline.
func NewCampaign(actions ...Action) *Campaign {
	return &Campaign{actions: append([]Action(nil), actions...)}
}

// Actions returns a copy of the campaign's actions.
func (c *Campaign) Actions() []Action { return append([]Action(nil), c.actions...) }

// Validate checks every action against a cluster of nodes nodes and
// links external links, without booting anything: shape parameters
// (times, durations, rates, counts, periods) and target ranges.
// NewInjector runs it first; spec layers call it with the topology's
// node and link counts, since boot wires one external link per
// topology link, in the topology's order.
func (c *Campaign) Validate(nodes, links int) error {
	for _, a := range c.actions {
		if err := a.validate(nodes, links); err != nil {
			return err
		}
	}
	return nil
}

func (a Action) validate(nodes, links int) error {
	if a.at < 0 {
		return fmt.Errorf("fault: %v: negative start time: %w", a, errs.ErrBadConfig)
	}
	if a.dur < 0 {
		return fmt.Errorf("fault: %v: negative duration %v: %w", a, a.dur, errs.ErrBadConfig)
	}
	if a.penalty < 0 {
		return fmt.Errorf("fault: %v: negative retry penalty %v: %w", a, a.penalty, errs.ErrBadConfig)
	}
	switch a.kind {
	case KindDegrade:
		if a.rate <= 0 || a.rate >= 1 {
			return fmt.Errorf("fault: %v: error rate %v outside (0,1): %w", a, a.rate, errs.ErrBadConfig)
		}
	case KindFlap, KindRetrainStorm:
		if a.count < 1 {
			return fmt.Errorf("fault: %v: count %d < 1: %w", a, a.count, errs.ErrBadConfig)
		}
		if a.period <= 0 {
			return fmt.Errorf("fault: %v: non-positive period: %w", a, errs.ErrBadConfig)
		}
	case KindDown:
	case KindCrash:
		if a.node < 0 || a.node >= nodes {
			return fmt.Errorf("fault: %v: node outside [0,%d): %w", a, nodes, errs.ErrBadConfig)
		}
		return nil
	default:
		return fmt.Errorf("fault: %v: unknown kind: %w", a, errs.ErrBadConfig)
	}
	if a.link < 0 || a.link >= links {
		return fmt.Errorf("fault: %v: link outside [0,%d): %w", a, links, errs.ErrBadConfig)
	}
	return nil
}
