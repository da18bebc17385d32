package main

import "fractal/internal/codec"

// metricDef is one named number the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; the smoke test holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
}

// endToEndDefs are what a user of the system sees. Every workload emits
// every one; README.md says what each means on a workload whose ops do not
// produce it directly. The bounds follow what ten runs on ten seeds showed
// on the 2-core host the benchmark was written on: anything timed drifts
// with the host by 5-13 % between runs (quartile distance over median), so
// timed metrics are gross tripwires at the contract's cap; counts repeat to
// 0.5 % or better and carry the tight bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"time_to_protocol_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"wire_ratio", "ratio", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

var protocols = []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock}

// perLayerDefs are the single-layer numbers, in layer order.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perProto := func(prefix string) []string {
		out := make([]string, len(protocols))
		for i, p := range protocols {
			out[i] = prefix + "." + p
		}
		return out
	}
	add("us", "lower", "client.dial_us", "client.negotiate_us", "client.fetch_pad_us", "client.app_exchange_us",
		"client.ensure_self_us", "client.request_self_us")
	add("us", "lower", perProto("client.request_us")...)
	add("us", "lower", "inp.negotiate_json_us", "inp.negotiate_binary_us", "inp.app_frame_us")
	add("count", "lower", "inp.bytes_per_op", "inp.writes_per_op", "inp.reads_per_op")
	add("us", "lower", "proxy.service_us", "proxy.negotiate_hit_us", "proxy.negotiate_miss_us", "proxy.search_us")
	add("ratio", "higher", "proxy.cache_hit_ratio")
	add("count", "lower", "proxy.searches_per_op", "proxy.collapsed_per_op")
	add("us", "lower", "core.find_path_us")
	add("count", "lower", "core.cache_evictions_per_op")
	add("ratio", "lower", "core.cache_miss_ratio")
	add("us", "lower", "cdn.service_us", "cdn.origin_get_us")
	add("count", "lower", "cdn.bytes_per_fetch")
	add("us", "lower", "mobilecode.load_us", "mobilecode.unpack_us", "mobilecode.signature_us", "mobilecode.bytecode_verify_us")
	add("us", "lower", perProto("mobilecode.vm_decode_us")...)
	add("ratio", "lower", perProto("mobilecode.vm_overhead_frac")...)
	add("us", "lower", perProto("codec.encode_us")...)
	add("us", "lower", perProto("codec.decode_us")...)
	add("ratio", "higher", "codec.server_chunk_hit_ratio", "codec.client_chunk_hit_ratio")
	add("ratio", "lower", perProto("codec.wire_ratio")...)
	add("us", "lower", "appserver.service_us", "appserver.encode_us.cold", "appserver.encode_us.diff", "appserver.encode_us.current")
	add("ms", "lower", "appserver.install_update_ms")
	add("ratio", "higher", "appserver.precompute_hit_ratio")
	add("count", "lower", "appserver.reactive_per_op")
	add("count", "lower", "runtime.gc_cycles_per_kop")
	add("ms", "lower", "runtime.gc_pause_ms_total")
	add("ratio", "lower", "session.unattributed_frac", "trace.overhead_frac")
	return defs
}
