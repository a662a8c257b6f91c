package fault

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/ht"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chainFabric is a Fabric of n nodes in a chain: external link i joins
// nodes i and i+1. Injector construction only reads the link count and
// the endpoints, so the links themselves stay nil.
type chainFabric struct{ n int }

func (f chainFabric) ExternalLinks() []*ht.Link          { return make([]*ht.Link, f.n-1) }
func (f chainFabric) ExternalLinkEnds(id int) (a, b int) { return id, id + 1 }
func (f chainFabric) N() int                             { return f.n }
func (f chainFabric) Tracer() trace.Tracer               { return nil }
func (f chainFabric) Now() sim.Time                      { return 0 }

// TestActionValidateRejectsBadShapes checks every constructor's bad
// shapes: each is ErrBadConfig and names what is wrong. A negative
// duration would otherwise make a timed outage permanent, and a
// negative penalty would fall back to the link default.
func TestActionValidateRejectsBadShapes(t *testing.T) {
	us := sim.Microsecond
	cases := []struct {
		name    string
		a       Action
		wantSub string
	}{
		{"degrade negative start", LinkDegrade(0, -1, us, 0.1), "negative start"},
		{"degrade zero rate", LinkDegrade(0, us, us, 0), "error rate"},
		{"degrade rate one", LinkDegrade(0, us, us, 1), "error rate"},
		{"degrade negative rate", LinkDegrade(0, us, us, -0.1), "error rate"},
		{"degrade negative duration", LinkDegrade(0, us, -5, 0.1), "negative duration"},
		{"degrade negative penalty", LinkDegradeWithPenalty(0, us, us, 0.1, -1), "negative retry penalty"},
		{"degrade with penalty negative duration", LinkDegradeWithPenalty(0, us, -1, 0.1, us), "negative duration"},
		{"down negative start", LinkDown(0, -1), "negative start"},
		{"down-for negative duration", LinkDownFor(0, us, -1), "negative duration"},
		{"flap zero count", LinkFlap(0, us, 0, us), "count 0"},
		{"flap zero period", LinkFlap(0, us, 2, 0), "non-positive period"},
		{"flap negative period", LinkFlap(0, us, 2, -us), "non-positive period"},
		{"storm zero count", RetrainStorm(0, us, 0, us), "count 0"},
		{"storm zero period", RetrainStorm(0, us, 2, 0), "non-positive period"},
		{"crash negative start", NodeCrash(0, -1), "negative start"},
		{"crash-for negative duration", NodeCrashFor(0, us, -5), "negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := NewCampaign(tc.a).Validate(4, 4)
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("validate(%v) = %v, want ErrBadConfig", tc.a, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestActionValidateAcceptsGoodShapes pins the boundary values each
// constructor accepts: zero start, zero (permanent) duration, zero
// (link default) penalty, and a single flap or retrain.
func TestActionValidateAcceptsGoodShapes(t *testing.T) {
	us := sim.Microsecond
	for _, a := range []Action{
		LinkDegrade(0, 0, 0, 0.5),
		LinkDegradeWithPenalty(0, us, us, 0.5, 0),
		LinkDown(0, 0),
		LinkDownFor(0, us, 0),
		LinkFlap(0, us, 1, us),
		RetrainStorm(0, us, 1, us),
		NodeCrash(0, 0),
		NodeCrashFor(0, us, us),
	} {
		if err := NewCampaign(a).Validate(1, 1); err != nil {
			t.Errorf("validate(%v) = %v, want nil", a, err)
		}
	}
}

// TestNewInjectorRejectsBadCampaigns checks the checks only the
// injector can make, against the cluster's links and nodes, and that a
// bad shape stops construction too.
func TestNewInjectorRejectsBadCampaigns(t *testing.T) {
	fab := chainFabric{n: 3} // links 0 and 1
	us := sim.Microsecond
	cases := []struct {
		name    string
		a       Action
		wantSub string
	}{
		{"link past the end", LinkDown(2, us), "link outside [0,2)"},
		{"negative link", LinkDegrade(-1, us, us, 0.1), "link outside [0,2)"},
		{"flap past the end", LinkFlap(5, us, 1, us), "link outside [0,2)"},
		{"storm past the end", RetrainStorm(2, us, 1, us), "link outside [0,2)"},
		{"node past the end", NodeCrash(3, us), "node outside [0,3)"},
		{"negative node", NodeCrashFor(-1, us, us), "node outside [0,3)"},
		{"negative duration", LinkDownFor(0, us, -1), "negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewInjector(fab, NewCampaign(LinkDown(0, us), tc.a))
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("NewInjector(%v) = %v, want ErrBadConfig", tc.a, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	inj, err := NewInjector(fab, NewCampaign(
		LinkDownFor(1, us, us), // down + retrain
		NodeCrash(1, 2*us),     // node 1 touches both links: two downs
	))
	if err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	if got := inj.Pending(); got != 4 {
		t.Fatalf("valid campaign expanded to %d ops, want 4", got)
	}
}
