package main

import "encoding/json"

// metricSpec is one entry of the metric catalogue. BENCHMARK.json at
// the repository root is generated from this file (-benchmark-json)
// and bench_test.go checks the two stay equal. Only end-to-end metrics
// carry a bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 10

var workloadSpecs = []workloadSpec{
	{"sweep-8192", "monitoring only, 8192 back-ends: sim heap, simos timer ticks, core sweep, simnet batch reads and wire decode do all the work; loadbalance, httpsim and workload do none"},
	{"dispatch-64", "request path, 64 back-ends under RUBiS clients: loadbalance Pick and httpsim LocalFrac dominate and monitoring is under 5 %; the mirror image of sweep-8192"},
	{"scaleout-8192", "the pooled scale-out experiment end to end: connpool, crash/restart churn, dial storm, fd clamp and epoch fences use the monitoring layers differently from the plain sweep"},
	{"live-probe", "loopback tcpverbs, smallest message, one round trip per op: per-frame cost of tcpverbs + livemon + wire decode dominates"},
	{"live-mixed", "loopback tcpverbs used the other way: pipelined 32-read batches, writes and atomics beside reads, bypassing livemon; coalesced-syscall work shows here and leaves live-probe flat"},
}

// endToEnd are the metrics a user of rdmamon sees; every workload
// reports every one (see README.md for what an iteration and an
// operation are on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// breakdownLayers are the layers a breakdown table may attribute time
// to; each gets a share.<layer> metric.
var breakdownLayers = []string{
	"sim", "simos", "simnet", "wire", "core", "loadbalance", "httpsim",
	"connpool", "cluster", "tcpverbs", "livemon", "procfs",
}

// perLayer are the single-layer metrics of the traced run. Unit-cost
// metrics come from the layers pass and are the same code on every
// workload; the rest are counts and shares read while the workload
// ran, and are 0 on a workload that does not exercise the layer.
var perLayer = func() []metricSpec {
	ns := func(names ...string) (out []metricSpec) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: "ns", Better: "lower"})
		}
		return out
	}
	m := func(name, unit, better string) metricSpec {
		return metricSpec{Name: name, Unit: unit, Better: better}
	}
	var l []metricSpec
	l = append(l, ns("sim.schedule_step_ns", "sim.schedule_step_ns.d256", "sim.cancel_ns", "sim.cancel_ns.d256")...)
	l = append(l,
		m("sim.allocs_per_event", "count", "lower"),
		m("sim.events_per_s", "1/s", "higher"),
		m("sim.events_per_sim_s", "count", "lower"),
		m("sim.queue_len", "count", "lower"))
	l = append(l, ns("simos.idle_node_sim_s_ns", "simos.compute_sleep_ns", "simos.recv_wake_ns")...)
	l = append(l, ns("simnet.rdma_read_ns", "simnet.read_batch32_ns_per_read", "simnet.write_ns",
		"simnet.cas_ns", "simnet.send_recv_ns")...)
	l = append(l, m("simnet.allocs_per_read", "count", "lower"))
	l = append(l, ns("wire.encode_record_ns", "wire.decode_record_ns", "wire.decode_ring16_ns",
		"wire.encode_push_ns", "wire.decode_push_ns")...)
	l = append(l, m("wire.allocs_per_decode", "count", "lower"))
	l = append(l, ns("core.wall_ns_per_read", "core.index_ns")...)
	l = append(l,
		m("core.reads_per_sim_s", "count", "higher"),
		m("core.allocs_per_read", "count", "lower"),
		m("core.cycle_p50_us", "us", "lower"),
		m("core.probe_errors", "count", "lower"))
	l = append(l, ns("loadbalance.pick_ns.n8", "loadbalance.pick_ns.n64", "loadbalance.pick_ns.n256",
		"loadbalance.pick_prop_ns.n64")...)
	l = append(l, m("loadbalance.picks", "count", "higher"))
	l = append(l, ns("httpsim.localfrac_ns.n64")...)
	l = append(l,
		m("httpsim.wall_us_per_request", "us", "lower"),
		m("httpsim.served_per_sim_s", "count", "higher"))
	l = append(l, ns("connpool.acquire_release_ns", "connpool.dial_cycle_ns")...)
	l = append(l,
		m("connpool.dials", "count", "lower"),
		m("connpool.sheds", "count", "lower"),
		m("connpool.fences", "count", "lower"))
	l = append(l, ns("cluster.new_ns_per_backend")...)
	l = append(l, ns("tcpverbs.read_ns", "tcpverbs.iter_p50_ns", "tcpverbs.iter_p99_ns", "tcpverbs.batch32_ns_per_read",
		"tcpverbs.write_ns", "tcpverbs.cas_ns", "tcpverbs.call_ns", "tcpverbs.dial_ns")...)
	l = append(l,
		m("tcpverbs.allocs_per_read", "count", "lower"),
		m("tcpverbs.syscalls_per_read", "count", "lower"))
	l = append(l, ns("livemon.fetch_ns", "livemon.fetch_p50_ns", "livemon.fetch_p99_ns", "livemon.fetch_history16_ns",
		"livemon.pooled_fetch_ns", "livemon.handshake_ns", "livemon.fetch_overhead_ns")...)
	l = append(l, ns("procfs.snapshot_ns", "scenario.parse_compile_ns")...)
	for _, layer := range breakdownLayers {
		l = append(l, m("share."+layer, "share", "lower"))
	}
	l = append(l,
		m("trace.unattributed_share", "share", "lower"),
		m("trace.overhead_share", "share", "lower"))
	return l
}()

// benchmarkJSON renders the catalogue as the repository's
// BENCHMARK.json.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the catalogue is static data
	}
	return append(b, '\n')
}
