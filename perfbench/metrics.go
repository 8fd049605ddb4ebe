package main

// metric is one reported number's name and unit. BENCHMARK.json at the
// repository root declares the same sets; the tests hold the two equal.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; an untraced run
// reports all of them on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"fit_exdpc_s", "s"},
	{"fit_approxdpc_s", "s"},
	{"fit_sapproxdpc_s", "s"},
	{"assign_json_p50_ms", "ms"},
	{"assign_json_p99_ms", "ms"},
	{"assign_frame_p50_ms", "ms"},
	{"assign_frame_p99_ms", "ms"},
	{"assign_pts_per_s", "1/s"},
	{"stream_pts_per_s", "1/s"},
	{"append_p50_ms", "ms"},
	{"refit_p50_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the single-layer metrics a traced run reports, measured
// on the workload's own inputs by calling each module's public API.
var perLayer = []metric{
	{"geom.sqdist_ns", "ns"},
	{"geom.sqdist_partial_ns", "ns"},
	{"kdtree.build_ms", "ms"},
	{"kdtree.range_count_us", "us"},
	{"kdtree.nn_us", "us"},
	{"core.exdpc.build_s", "s"},
	{"core.exdpc.rho_s", "s"},
	{"core.exdpc.delta_s", "s"},
	{"core.exdpc.label_s", "s"},
	{"core.approxdpc.build_s", "s"},
	{"core.approxdpc.rho_s", "s"},
	{"core.approxdpc.delta_s", "s"},
	{"core.approxdpc.label_s", "s"},
	{"core.sapproxdpc.build_s", "s"},
	{"core.sapproxdpc.rho_s", "s"},
	{"core.sapproxdpc.delta_s", "s"},
	{"core.sapproxdpc.label_s", "s"},
	{"core.assigner_build_s", "s"},
	{"core.assign_all_us_per_pt", "us"},
	{"densindex.build_s", "s"},
	{"densindex.update_ms", "ms"},
	{"densindex.cut.rho_ms", "ms"},
	{"densindex.cut.delta_ms", "ms"},
	{"densindex.cut.label_ms", "ms"},
	{"densindex.edges", "count"},
	{"service.assign_ms", "ms"},
	{"service.append_ms", "ms"},
	{"service.fit_hit_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.index_cut_ratio", "ratio"},
	{"service.stale_serve_ratio", "ratio"},
	{"drift.observe_us", "us"},
	{"wire.decode_points_us", "us"},
	{"wire.encode_labels_us", "us"},
	{"wire.bytes_per_point", "B"},
	{"api.json_decode_ms", "ms"},
	{"api.json_encode_ms", "ms"},
	{"api.json_bytes_per_point", "B"},
	{"http.handler_json_ms", "ms"},
	{"http.handler_frame_ms", "ms"},
	{"http.socket_frame_ms", "ms"},
	{"ring.owner_lookup_ns", "ns"},
	{"ring.relay_ms", "ms"},
	{"trace.span_ns", "ns"},
	{"trace.overhead_ms", "ms"},
	{"ops.failed_ratio", "ratio"},
}
