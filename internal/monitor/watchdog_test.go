package monitor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mkWindow synthesizes one closed sampling window from counter deltas
// and absolute totals, 100 us wide ending at end.
func mkWindow(idx int64, end sim.Time, delta, totals map[trace.Key]uint64, links []core.LinkStatus) Window {
	return Window{
		Index:  idx,
		Start:  end - 100*sim.Microsecond,
		End:    end,
		Delta:  snap(delta),
		Totals: snap(totals),
		Links:  links,
	}
}

func key(name string, link int) trace.Key { return trace.Key{Name: name, Link: link} }

// alertCounter tallies raise/resolve callbacks per rule.
type alertCounter struct {
	raised   map[string]int
	resolved map[string]int
}

func newAlertCounter() *alertCounter {
	return &alertCounter{raised: map[string]int{}, resolved: map[string]int{}}
}

func (c *alertCounter) observe(a Alert) {
	if a.Active() {
		c.raised[a.Rule]++
	} else {
		c.resolved[a.Rule]++
	}
}

// TestDeadLinkRuleFiresOncePerIncident walks a watchdog through a full
// synthesized incident: healthy traffic, a link that goes down and stays
// down for many windows, recovery, then a second incident. The alert
// must raise exactly once per incident and resolve exactly once — the
// no-flapping contract.
func TestDeadLinkRuleFiresOncePerIncident(t *testing.T) {
	d := NewWatchdog(DeadLinkRule(3))
	counts := newAlertCounter()
	d.OnAlert(counts.observe)

	up := []core.LinkStatus{{ID: 0, State: "active"}}
	down := []core.LinkStatus{{ID: 0, State: "down"}}
	healthy := func(idx int64, total uint64) Window {
		return mkWindow(idx, sim.Time(idx+1)*100*sim.Microsecond,
			map[trace.Key]uint64{
				key("port.pkts_sent", 0): 10,
				key("port.pkts_recv", 0): 10,
			},
			map[trace.Key]uint64{key("port.pkts_recv", 0): total}, up)
	}
	stalled := func(idx int64, total uint64) Window {
		return mkWindow(idx, sim.Time(idx+1)*100*sim.Microsecond,
			map[trace.Key]uint64{
				key("port.pkts_sent", 0):   10,
				key("port.send_errors", 0): 10,
			},
			map[trace.Key]uint64{key("port.pkts_recv", 0): total}, down)
	}

	idx := int64(0)
	for ; idx < 5; idx++ { // healthy baseline
		if got := d.Evaluate(healthy(idx, uint64(10*(idx+1)))); len(got) != 0 {
			t.Fatalf("healthy window %d raised %v", idx, got)
		}
	}

	// Windows 5..6 violate but are under the sustain=3 hysteresis.
	for ; idx < 7; idx++ {
		if got := d.Evaluate(stalled(idx, 50)); len(got) != 0 {
			t.Fatalf("window %d raised before sustain threshold: %v", idx, got)
		}
	}
	// Window 7 is the third consecutive violation: raise now, exactly once.
	raisedAt := sim.Time(idx+1) * 100 * sim.Microsecond
	newly := d.Evaluate(stalled(idx, 50))
	idx++
	if len(newly) != 1 || newly[0].Rule != "dead-link" || newly[0].RaisedAt != raisedAt {
		t.Fatalf("sustain window raised %+v, want one dead-link alert at %v", newly, raisedAt)
	}
	// Ten more violating windows extend the same incident silently.
	for ; idx < 18; idx++ {
		if got := d.Evaluate(stalled(idx, 50)); len(got) != 0 {
			t.Fatalf("window %d re-raised during incident (flapping): %v", idx, got)
		}
	}
	if counts.raised["dead-link"] != 1 {
		t.Fatalf("raise callbacks = %d, want exactly 1", counts.raised["dead-link"])
	}
	if active := d.Active(); len(active) != 1 || !active[0].Active() {
		t.Fatalf("active alerts = %+v, want the held incident", active)
	}

	// Recovery: one healthy window resolves the incident, exactly once.
	d.Evaluate(healthy(idx, 60))
	idx++
	if counts.resolved["dead-link"] != 1 {
		t.Fatalf("resolve callbacks = %d, want exactly 1", counts.resolved["dead-link"])
	}
	if len(d.Active()) != 0 {
		t.Fatalf("alert still active after clean window: %+v", d.Active())
	}
	if h := d.History(); len(h) != 1 || h[0].Active() {
		t.Fatalf("history = %+v, want one resolved incident", h)
	}

	// A second incident is a fresh alert, not a suppressed repeat.
	for i := 0; i < 3; i++ {
		d.Evaluate(stalled(idx, 60))
		idx++
	}
	if counts.raised["dead-link"] != 2 {
		t.Fatalf("second incident raised %d alerts total, want 2", counts.raised["dead-link"])
	}
	raised, resolved := d.Counts()
	if raised != 2 || resolved != 1 {
		t.Fatalf("Counts() = %d/%d, want 2 raised, 1 resolved", raised, resolved)
	}
}

// TestDeadLinkRuleIgnoresVirginLinks: a link that never delivered a
// packet (cold, unused) must not alert just because nothing arrives.
func TestDeadLinkRuleIgnoresVirginLinks(t *testing.T) {
	d := NewWatchdog(DeadLinkRule(1))
	down := []core.LinkStatus{{ID: 0, State: "down"}}
	for i := int64(0); i < 5; i++ {
		w := mkWindow(i, sim.Time(i+1)*100*sim.Microsecond,
			map[trace.Key]uint64{key("port.pkts_sent", 0): 4},
			nil, down)
		if got := d.Evaluate(w); len(got) != 0 {
			t.Fatalf("virgin link raised %v", got)
		}
	}
}

func TestCreditStallRuleSustainAndStreakReset(t *testing.T) {
	// 1000 stalls per 100 us window = 1e7/s, over the 2e6/s threshold.
	d := NewWatchdog(CreditStallRule(2e6, 3))
	counts := newAlertCounter()
	d.OnAlert(counts.observe)

	stalling := func(idx int64, n uint64) Window {
		return mkWindow(idx, sim.Time(idx+1)*100*sim.Microsecond,
			map[trace.Key]uint64{key("port.credit_stalls", 2): n}, nil, nil)
	}

	// Two violating windows, then a clean one: the streak must reset.
	d.Evaluate(stalling(0, 1000))
	d.Evaluate(stalling(1, 1000))
	d.Evaluate(stalling(2, 0))
	if counts.raised["credit-stall"] != 0 {
		t.Fatal("raised despite streak reset before sustain count")
	}
	// Three consecutive violations: raise exactly once, on the third.
	d.Evaluate(stalling(3, 1000))
	d.Evaluate(stalling(4, 1000))
	if counts.raised["credit-stall"] != 0 {
		t.Fatal("raised before third consecutive violation")
	}
	newly := d.Evaluate(stalling(5, 1000))
	if len(newly) != 1 || newly[0].Rule != "credit-stall" ||
		newly[0].Target != key("link", 2) {
		t.Fatalf("raised %+v, want one credit-stall alert on link 2", newly)
	}
	// Held, not re-raised, while the storm continues.
	d.Evaluate(stalling(6, 5000))
	if counts.raised["credit-stall"] != 1 {
		t.Fatalf("raise callbacks = %d, want 1", counts.raised["credit-stall"])
	}
	// Rate below threshold resolves: 100 stalls/100us = 1e6/s < 2e6/s.
	d.Evaluate(stalling(7, 100))
	if counts.resolved["credit-stall"] != 1 || len(d.Active()) != 0 {
		t.Fatalf("storm end did not resolve: resolved=%d active=%v",
			counts.resolved["credit-stall"], d.Active())
	}
}

func TestMasterAbortRuleBurstThreshold(t *testing.T) {
	d := NewWatchdog(MasterAbortRule(16))
	aborts := func(idx int64, node int, n uint64) Window {
		return mkWindow(idx, sim.Time(idx+1)*100*sim.Microsecond,
			map[trace.Key]uint64{{Name: "nb.master_aborts", Node: node}: n}, nil, nil)
	}
	if got := d.Evaluate(aborts(0, 1, 15)); len(got) != 0 {
		t.Fatalf("sub-burst abort count raised %v", got)
	}
	got := d.Evaluate(aborts(1, 1, 16))
	if len(got) != 1 || got[0].Target != nodeKey(1) {
		t.Fatalf("burst raised %+v, want one master-abort alert on node 1", got)
	}
}

func TestWatchdogEmitsTraceEvents(t *testing.T) {
	col := trace.NewCollector(64)
	d := NewWatchdog(MasterAbortRule(1))
	d.SetTracer(col)
	w := mkWindow(0, 100*sim.Microsecond,
		map[trace.Key]uint64{{Name: "nb.master_aborts", Node: 3}: 5}, nil, nil)
	d.Evaluate(w)
	clean := mkWindow(1, 200*sim.Microsecond, nil, nil, nil)
	d.Evaluate(clean)

	var kinds []trace.Kind
	for _, ev := range col.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != trace.KindAlert || kinds[1] != trace.KindAlertResolved {
		t.Fatalf("trace kinds = %v, want [alert alert-resolved]", kinds)
	}
	if raised, resolved := d.Counts(); raised != 1 || resolved != 1 {
		t.Fatalf("Counts() = %d/%d, want 1 raised, 1 resolved", raised, resolved)
	}
}
