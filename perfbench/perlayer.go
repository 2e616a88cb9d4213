package main

// perLayerMetrics computes the traced run's metrics. Span timings (_ms)
// are medians over the traced calls and allocations are means per call;
// counts and ratios come from the checked block, so they repeat exactly
// at a fixed seed; go.* are whole-run totals scaled to one block, like
// cpu_s. A layer the workload does not drive reads 0.
func perLayerMetrics(r *runResult) map[string]metric {
	tr, n := r.spans, r.counts
	spanMs := func(name string) float64 {
		d, _ := tr.calls(name)
		return ms(median(d))
	}
	allocs := func(name string) float64 {
		_, a := tr.calls(name)
		return a
	}
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	put("supernode.connected_ms", "ms", spanMs("supernode.connected"))
	put("splitmerge.connected_ms", "ms", spanMs("splitmerge.connected"))
	put("supernode.step_ms", "ms", spanMs("supernode.step"))
	put("splitmerge.step_ms", "ms", spanMs("splitmerge.step"))
	put("supernode.allocs_per_step", "count", allocs("supernode.step"))
	put("splitmerge.allocs_per_step", "count", allocs("splitmerge.step"))
	put("supernode.msgs_per_round", "count", ratio(n["supernode.msgs"], n["supernode.rounds"]))
	put("supernode.stalls", "count", n["supernode.stalls"])
	put("supernode.snapshot_ms", "ms", spanMs("supernode.snapshot"))
	put("splitmerge.snapshot_ms", "ms", spanMs("splitmerge.snapshot"))
	put("dos.select_ms", "ms", spanMs("dos.select"))
	put("splitmerge.churn_ms", "ms", spanMs("splitmerge.churn"))
	put("splitmerge.splits_merges", "count", n["splitmerge.splits_merges"])

	put("sim.step_ms", "ms", spanMs("sim.step"))
	put("sim.msgs_per_step", "count", ratio(n["sim.msgs"], n["sim.steps"]))
	put("sim.allocs_per_step", "count", allocs("sim.step"))
	put("sim.live_bytes_per_node", "B", r.floodLive)
	put("sim.step_ms_shards2", "ms", spanMs("sim.step_shards2"))

	put("sampling.rapid_ms", "ms", spanMs("sampling.rapid"))
	put("sampling.allocs_per_call", "count", allocs("sampling.rapid"))
	put("sampling.rounds", "count", ratio(n["sampling.rounds"], n["sampling.calls"]))
	put("sampling.failures", "count", n["sampling.failures"])
	put("sampling.tv_over_env", "ratio", ratio(n["sampling.tv_over_env"], n["sampling.calls"]))

	put("core.epoch_ms", "ms", spanMs("core.epoch"))
	put("core.allocs_per_epoch", "count", allocs("core.epoch"))
	put("core.epoch_rounds", "count", ratio(n["core.epoch_rounds"], n["core.epochs"]))
	put("core.max_node_bits", "bits", n["core.max_node_bits"])
	put("core.failures", "count", n["core.failures"])
	put("core.validate_ms", "ms", spanMs("core.validate"))
	put("graph.connected_ms", "ms", spanMs("graph.connected"))
	put("churn.plan_ms", "ms", spanMs("churn.plan"))

	put("reliable.retransmits", "count", n["reliable.retransmits"])
	put("reliable.acks", "count", n["reliable.acks"])
	put("reliable.delivery_failures", "count", n["reliable.delivery_failures"])
	put("reliable.stale", "count", n["reliable.stale"])
	put("reliable.ctl_bits", "bits", n["reliable.ctl_bits"])
	put("reliable.retx_per_ack", "ratio", ratio(n["reliable.core_retransmits"], n["reliable.acks"]))
	put("sim.deferred", "count", n["sim.deferred"])

	put("go.gc_cycles", "count", r.perBlock(float64(r.gcCycles)))
	put("go.gc_pause_ms", "ms", r.perBlock(ms(r.gcPause)))
	put("go.alloc_mb", "MB", r.perBlock(float64(r.allocBytes)/1e6))

	overhead := 0.0
	if len(r.tracedDur) > 0 && len(r.untracedDur) > 0 {
		overhead = ratio(float64(median(r.tracedDur)), float64(median(r.untracedDur))) - 1
	}
	put("trace.overhead_share", "ratio", overhead)
	put("error_share", "ratio", errorShare(r))
	put("ops", "count", float64(r.ops()))
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
