package main

// The metric and workload names below are the benchmark's contract:
// BENCHMARK.json lists the same names (bench_test.go holds the two
// together) and later changes cite them.

type metricSpec struct{ name, unit string }

// endToEnd is what every workload reports from an untraced run. op1..op4
// are the workload's four operation classes, named in workloads below;
// each reports the lower quartile of its latencies (see steady).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op1_q1_ms", "ms"},
	{"op2_q1_ms", "ms"},
	{"op3_q1_ms", "ms"},
	{"op4_q1_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var opNames = [4]string{"op1", "op2", "op3", "op4"}

// perLayer is what a traced run reports. Probe metrics time calls into
// one layer's exported functions on the scan and join inputs and are
// the same measurement whichever workload is traced; the rest are
// counts read off the traced workload itself and are zero where the
// workload does not reach the layer.
var perLayer = []metricSpec{
	{"lexer.json_scan_mb_s", "MB/s"},
	{"lexer.json_spec_mb_s", "MB/s"},
	{"lexer.xml_scan_mb_s", "MB/s"},
	{"numparse.float_ns", "ns"},
	{"geojson.boundaries_mb_s", "MB/s"},
	{"geojson.parse_seq_mb_s", "MB/s"},
	{"geojson.parse_eval_mb_s", "MB/s"},
	{"geojson.pat_blocks_mb_s", "MB/s"},
	{"geojson.fat_blocks_mb_s", "MB/s"},
	{"geojson.pat_repair_ratio", "ratio"},
	{"geojson.fat_reprocess_ratio", "ratio"},
	{"wkt.parse_mb_s", "MB/s"},
	{"osmxml.parse_mb_s", "MB/s"},
	{"query.apply_ns_per_feature", "ns"},
	{"kernel.locate_mpts_s", "Mpts/s"},
	{"kernel.locate_scalar_mpts_s", "Mpts/s"},
	{"kernel.boxfilter_mboxes_s", "Mboxes/s"},
	{"pipeline.exec_1c_mb_s", "MB/s"},
	{"pipeline.speedup", "ratio"},
	{"pipeline.agg_1c_mb_s", "MB/s"},
	{"pipeline.stream_mb_s", "MB/s"},
	{"pipeline.split_ms", "ms"},
	{"pipeline.process_ms", "ms"},
	{"pipeline.merge_ms", "ms"},
	{"pipeline.blocks", "count"},
	{"pipeline.alloc_kb_per_mb", "kB/MB"},
	{"pipeline.gc_cycles_per_pass", "count"},
	{"pipeline.sched_locality_hit_ratio", "ratio"},
	{"pipeline.sched_share_err", "ratio"},
	{"sidecar.prune_ns_per_feature", "ns"},
	{"sidecar.keep_ratio", "ratio"},
	{"sidecar.load_ms", "ms"},
	{"sidecar.encode_ms", "ms"},
	{"sidecar.write_ms", "ms"},
	{"sidecar.bytes_per_src_kb", "B/kB"},
	{"sidecar.build_overhead_ratio", "ratio"},
	{"sidecar.hit_ratio", "ratio"},
	{"partition.insert_mentries_s", "Mentries/s"},
	{"join.partition_ms", "ms"},
	{"join.sweep_ms", "ms"},
	{"join.sweep_direct_ms", "ms"},
	{"join.candidates", "count"},
	{"join.refine_ratio", "ratio"},
	{"join.dup_ratio", "ratio"},
	{"join.reparse_cache_hit_ratio", "ratio"},
	{"join.stream_first_pair_ms", "ms"},
	{"admission.acquire_ns", "ns"},
	{"admission.rejected", "count"},
	{"admission.queued_peak", "count"},
	{"server.handler_ms", "ms"},
	{"server.socket_ms", "ms"},
	{"server.ndjson_mb_s", "MB/s"},
	{"server.gzip_mb_s", "MB/s"},
	{"cluster.decode_mb_s", "MB/s"},
	{"cluster.scatter_overhead_ms", "ms"},
	{"cluster.shard_retries", "count"},
	{"cluster.shard_faults", "count"},
	{"bench.gen_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"e2e.op1_p50_ms", "ms"},
	{"e2e.op2_p50_ms", "ms"},
	{"e2e.op3_p50_ms", "ms"},
	{"e2e.op4_p50_ms", "ms"},
	{"e2e.op1_tail_ms", "ms"},
	{"e2e.op1_tail_pct", "count"},
	{"e2e.fail_rate", "ratio"},
}

// workloadSpec names a workload and its four operation classes.
type workloadSpec struct {
	name string
	ops  [4]string
	new  func() workload
}

var workloads = []workloadSpec{
	{"cold_scan", [4]string{
		"GeoJSON PAT pass, selective window",
		"GeoJSON FAT pass, same window",
		"WKT pass, same window",
		"OSM XML pass, same window",
	}, func() workload { return &coldScan{} }},
	{"warm_window", [4]string{
		"warm selective window (Prepare + Execute)",
		"first pass with the .atgx deleted (records + writes the index)",
		"warm aggregation window (area + perimeter)",
		"warm parity join (partition from the index tape)",
	}, func() workload { return &warmWindow{} }},
	{"join_cells", [4]string{
		"Engine.Join, buffered",
		"Engine.JoinStream drained, unordered",
		"Engine.JoinStream drained, order_window 64",
		"Engine.JoinStream call to first pair, order_window 64",
	}, func() workload { return &joinCells{} }},
	{"serve_mixed", [4]string{
		"interactive tenant: selective containment request",
		"batch tenant: wide streaming containment request",
		"batch tenant: /v1/join request",
		"batch tenant: wide containment request, gzip",
	}, func() workload { return &serveMixed{} }},
	{"cluster_scatter", [4]string{
		"selective containment through the coordinator",
		"/v1/join through the coordinator",
		"wide streaming containment through the coordinator",
		"wide aggregation through the coordinator",
	}, func() workload { return &clusterScatter{} }},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
