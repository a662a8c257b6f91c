// Fuzzing for the scenario spec's serve block: the strict JSON decode
// plus the serveConfig lowering that Validate hands to serve.Config.
// The spec file is the archival record of a run, so the parser must
// hold two invariants against arbitrary input: never panic, and never
// let an invalid spec through to a cluster boot — everything either
// parses into a config the serve layer itself accepts, or fails with
// ErrBadConfig.
package scenario

import (
	"errors"
	"fmt"
	"testing"

	tccluster "repro"
	"repro/internal/errs"
)

// FuzzServeSpec wraps arbitrary bytes in the one well-formed envelope
// (version/name/topology) so the fuzzer spends its budget on the serve
// block, not on rediscovering JSON syntax.
func FuzzServeSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"shards": 64, "replica_n": 2}`,
		`{"keyspace": 65536, "value_bytes": 128, "read_fraction": 0.9}`,
		`{"policy": "least-loaded", "slo_ns": 25000, "timeout_ns": 75000}`,
		`{"policy": "affinity", "requests_per_node": 1500, "seed": 29}`,
		`{"mean_interarrival_ns": 2000, "bucket_burst": 64, "bucket_rate": 1e6}`,
		`{"read_fraction": 1.5}`,
		`{"policy": "random"}`,
		`{"slo_ns": 50000, "timeout_ns": 10000}`,
		`{"shards": -1}`,
		`{"value_bytes": 1000000}`,
		`{"unknown_field": true}`,
		`{"window_ns": 100000, "dead_after": 3}`,
		`not json at all`,
		`{"value_bytes": 4}`,
		`{"requests_per_node": -1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		spec := fmt.Sprintf(`{
			"version": 1,
			"name": "fuzz-serve",
			"topology": {"kind": "chain", "nodes": 4},
			"workloads": [{"kind": "serve", "serve": %s}]
		}`, block)
		s, err := Parse([]byte(spec))
		if err != nil {
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("parse failed outside ErrBadConfig: %v", err)
			}
			return
		}
		// Whatever Parse accepted must lower onto a config the serve
		// layer itself runs on this topology: the scenario is never
		// looser than serve.Config.
		cfg := serveConfig(s.Workloads[0].Serve)
		if _, err := tccluster.ValidateServeConfig(cfg, 4); err != nil {
			t.Fatalf("parsed spec lowers onto a config serve rejects: %v", err)
		}
	})
}
