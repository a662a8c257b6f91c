package scenario

import (
	"fmt"

	tccluster "repro"
)

// ServeParams shape the serving workload: a replicated, shard-routed
// KV/query service over the whole cluster, driven by per-node
// open-loop clients. Zero fields keep the serve defaults.
type ServeParams struct {
	// Shards is the consistent-hash shard count (default 64).
	Shards int `json:"shards,omitempty"`
	// ReplicaN is replicas per shard (default 2, clamped to nodes).
	ReplicaN int `json:"replica_n,omitempty"`
	// Keyspace is the distinct-key count (default 1048576).
	Keyspace uint64 `json:"keyspace,omitempty"`
	// ValueBytes is the value payload size (default 128).
	ValueBytes int `json:"value_bytes,omitempty"`
	// ReadFraction is the read probability (default 0.9).
	ReadFraction float64 `json:"read_fraction,omitempty"`
	// RequestsPerNode is each node's arrival budget (default 1000).
	RequestsPerNode int `json:"requests_per_node,omitempty"`
	// MeanInterarrivalNS is the per-node mean arrival gap (default
	// 2000 ns).
	MeanInterarrivalNS int64 `json:"mean_interarrival_ns,omitempty"`
	// Policy is round-robin | least-loaded | affinity (default
	// round-robin).
	Policy string `json:"policy,omitempty"`
	// SLONS is the goodput latency bound (default 25000 ns).
	SLONS int64 `json:"slo_ns,omitempty"`
	// TimeoutNS declares a request lost (default 75000 ns).
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	// DeadAfter is consecutive timeouts before a client marks a server
	// dead (default 3).
	DeadAfter int `json:"dead_after,omitempty"`
	// BucketBurst is the admission token-bucket depth (default 64).
	BucketBurst int `json:"bucket_burst,omitempty"`
	// BucketRate is the bucket refill rate in requests per second of
	// virtual time (default 1e6; negative disables admission control).
	BucketRate float64 `json:"bucket_rate,omitempty"`
	// WindowNS is the goodput accounting window (default 100000 ns).
	WindowNS int64 `json:"window_ns,omitempty"`
	// Seed perturbs the arrival and key streams.
	Seed uint64 `json:"seed,omitempty"`
}

// checkServe lowers the serve block and hands it to serve.Config,
// which owns every serve rule.
func checkServe(_ *Scenario, topo *tccluster.Topology, w *WorkloadSpec) error {
	_, err := tccluster.ValidateServeConfig(serveConfig(w.Serve), topo.N())
	return err
}

// serveConfig lowers the spec block field for field: zero keeps the
// serve default, and serve.Config.Validate rejects what cannot run.
func serveConfig(p *ServeParams) tccluster.ServeConfig {
	if p == nil {
		return tccluster.ServeConfig{}
	}
	return tccluster.ServeConfig{
		Shards:           p.Shards,
		ReplicaN:         p.ReplicaN,
		Keyspace:         p.Keyspace,
		ValueBytes:       p.ValueBytes,
		ReadFraction:     p.ReadFraction,
		RequestsPerNode:  p.RequestsPerNode,
		MeanInterarrival: nsToTime(p.MeanInterarrivalNS),
		Policy:           tccluster.ServePolicy(p.Policy),
		SLO:              nsToTime(p.SLONS),
		Timeout:          nsToTime(p.TimeoutNS),
		DeadAfter:        p.DeadAfter,
		BucketBurst:      p.BucketBurst,
		BucketRate:       p.BucketRate,
		Window:           nsToTime(p.WindowNS),
		Seed:             p.Seed,
	}
}

// runServe deploys the service over the scenario's cluster, drives the
// open-loop clients to exhaustion (riding out whatever fault campaign
// the spec scripts), and prints the merged report. Every line is
// deterministic, so the serial/parallel byte-identity gates cover the
// full serving pipeline: placement, framing, routing, admission,
// timeout-driven failover and the latency histograms.
func runServe(rc *runCtx, w *WorkloadSpec) error {
	cfg := serveConfig(w.Serve)
	c, err := rc.cluster()
	if err != nil {
		return err
	}
	out := rc.out
	svc, err := c.NewService(cfg)
	if err != nil {
		return err
	}
	rcfg := svc.Config()
	fmt.Fprintf(out, "serve: %d nodes, %d shards x%d replicas, policy %s, %d req/node\n",
		c.N(), rcfg.Shards, rcfg.ReplicaN, rcfg.Policy, rcfg.RequestsPerNode)

	start := c.Now()
	svc.Start()
	c.Run()
	svc.Stop()
	c.Run()
	if err := rc.failed(); err != nil {
		return err
	}

	r := svc.Report()
	if r.Completed+r.Timeouts+r.Unroutable != r.Admitted {
		return fmt.Errorf("serve: request accounting broken: completed %d + timeouts %d + unroutable %d != admitted %d",
			r.Completed, r.Timeouts, r.Unroutable, r.Admitted)
	}
	if r.Bad != 0 {
		return fmt.Errorf("serve: %d corrupt frames or responses", r.Bad)
	}
	fmt.Fprintf(out, "serve: %d requests (%d reads / %d writes), %d completed, %d shed, %d local fast-path\n",
		r.Requests, r.Reads, r.Writes, r.Completed, r.Shed, r.Local)
	fmt.Fprintf(out, "serve: p50 %.3fus p99 %.3fus p999 %.3fus, goodput %.2f%%\n",
		r.P50PS/1e6, r.P99PS/1e6, r.P999PS/1e6, r.GoodputPct)
	fmt.Fprintf(out, "serve: timeouts %d, failovers %d, dead-marks %d, replicas applied %d\n",
		r.Timeouts, r.Failovers, r.DeadMarks, r.Replicas)
	fmt.Fprintf(out, "serve: %v virtual time, checksum %#x\n", c.Now()-start, r.Checksum)
	return nil
}
