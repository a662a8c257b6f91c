package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/errs"
)

// TestWorkloadRegistryRoundTrip drives every registered workload kind
// through the full spec path: a minimal JSON spec naming the kind must
// Parse (which validates), survive a marshal/re-parse round trip, and
// keep its kind. The table is built from the registry itself, so a new
// workload is covered the moment it is registered.
func TestWorkloadRegistryRoundTrip(t *testing.T) {
	for kind := range workloads {
		t.Run(kind, func(t *testing.T) {
			spec := fmt.Sprintf(`{
				"version": 1,
				"name": "roundtrip-%s",
				"topology": {"kind": "chain", "nodes": 4},
				"workloads": [{"kind": "%s"}]
			}`, kind, kind)
			s, err := Parse([]byte(spec))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if len(s.Workloads) != 1 || s.Workloads[0].Kind != kind {
				t.Fatalf("kind lost in parse: %+v", s.Workloads)
			}
			data, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("re-parse marshaled spec: %v", err)
			}
			if back.Workloads[0].Kind != kind {
				t.Fatalf("kind lost in round trip: %+v", back.Workloads)
			}
		})
	}
}

// TestWorkloadRegistrySerialMatchesParallel is the executor's
// determinism contract per workload kind: a minimal spec for every
// registered kind that runs on the shared cluster must produce an equal
// fingerprint and byte-identical output serially and on two
// partitions. Like the round trip above, the table is the registry, so
// a new workload is gated the moment it is registered. Standalone
// kinds build their own clusters scene by scene and are not driven
// through the shared cluster's parallel knob.
func TestWorkloadRegistrySerialMatchesParallel(t *testing.T) {
	for kind, def := range workloads {
		if def.standalone {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			spec := fmt.Sprintf(`{
				"version": 1,
				"name": "serial-parallel-%s",
				"topology": {"kind": "chain", "nodes": 4},
				"workloads": [{"kind": "%s"}]
			}`, kind, kind)
			base, err := Parse([]byte(spec))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var refOut bytes.Buffer
			refRes, err := base.Run(&refOut)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			s := base.Clone()
			s.Parallel = 2
			var out bytes.Buffer
			res, err := s.Run(&out)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if *res != *refRes {
				t.Errorf("fingerprint diverged: serial %+v, parallel %+v", refRes, res)
			}
			if !bytes.Equal(refOut.Bytes(), out.Bytes()) {
				t.Errorf("output diverged:\nserial:\n%s\nparallel:\n%s", refOut.Bytes(), out.Bytes())
			}
		})
	}
}

// TestUnknownWorkloadKind pins the failure mode for misspelled kinds:
// ErrBadConfig, never a panic or a silent skip.
func TestUnknownWorkloadKind(t *testing.T) {
	for _, kind := range []string{"srve", "does-not-exist", ""} {
		spec := fmt.Sprintf(`{
			"version": 1,
			"name": "unknown-kind",
			"topology": {"kind": "chain", "nodes": 4},
			"workloads": [{"kind": "%s"}]
		}`, kind)
		if _, err := Parse([]byte(spec)); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("kind %q: got %v, want ErrBadConfig", kind, err)
		}
	}
}

// TestMismatchedParamsBlock pins the other spec-rot failure mode: a
// parameter block that does not match the declared kind is rejected
// for every registered block.
func TestMismatchedParamsBlock(t *testing.T) {
	spec := `{
		"version": 1,
		"name": "mismatch",
		"topology": {"kind": "chain", "nodes": 4},
		"workloads": [{"kind": "pingpong", "serve": {"shards": 8}}]
	}`
	if _, err := Parse([]byte(spec)); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("mismatched block: got %v, want ErrBadConfig", err)
	}
}
