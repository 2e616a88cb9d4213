// Command perfbench is the repository's benchmark: one generator for
// the end-to-end and per-layer numbers of the simulator, with the
// simulated outputs checked on every run.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package (its own module, which imports the
// repository's packages through a replace directive) into .bench_build
// and runs it. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// The line before it is a record of the environment (Go version, nproc,
// GOMAXPROCS, git rev when the checkout is a repository), the seed, the
// workload sizes, the checked-block digest and what the result line
// cannot carry (op_ms_tail with its percentile and operation count,
// error_share, check counts). An incorrect run exits 1.
//
// # Load model
//
// One process runs one workload in a closed loop: one set of simulated
// networks, operations back to back, each starting when the previous one
// returns. Operations run in whole blocks until --seconds of wall time
// have passed, at least one block. Timed runs use one simulator worker
// (Shards 1) and GOMAXPROCS = min(2, nproc). Every input is generated
// from --seed; the layers receive only those inputs. The benchmark calls
// each layer only through its public functions.
//
// Block 0 is the checked block. Its simulated outputs (per-operation
// reports, samples, work counts) are hashed into a digest, which must
// equal the committed one (digests.go) at the default seed, and its
// layer counts are the per-layer counts. It is the same work on every
// run at a seed, whatever the speed.
//
// # Workloads
//
// overlay-dos: §5 supernode at n = 1024 under a 40% dos.GroupIsolate
// that is 2·EpochRounds late, plus §6 splitmerge at n0 = 1024 with 12.5%
// leave/join churn per epoch under a 30% late GroupIsolate. Connectivity
// is checked after every round, as experiments E8/E10/X2/X4 do. An
// operation is one round of each stack; a block is 120. Why: this is the
// connectivity checker's workload. ConnectedNow is almost all of its host
// time, so a faster checker shows here first, and the §5/§6 step once the
// checker is fast.
//
// scale: an S1/S2-style flood on sim.Network at n = 100k (every node
// sends 4 messages per round to uniformly random nodes), then one full
// §5 epoch and one full §6 epoch at n = 100k with MeasureEvery -1, as S3
// runs them. A block is 16 flood rounds and the two epochs, on three
// fresh networks: each is built when its phase starts and released when
// it ends, so one is held at a time. An operation is one flood round or one
// whole §5/§6 epoch, so op_ms_p50 is the kernel round. Why: the kernel
// step, the §5/§6 protocol steps and bytes per node dominate and the
// checker does no work: the bypass case for a checker fix, and the home
// of kernel and overlay-engine changes.
//
// reconfig-sync: synchronous §3 and §4 with E1/E6's d = 8, α = 2, ε = 1.
// An operation is one sampling.RapidHGraph on a fresh n = 512 ℍ-graph,
// then one core.RunEpoch of an n0 = 512 network under churn.Replace
// 0.25 (sampler c = 2, as in E1); a block is 4. Why: the §3 sampler is
// most of the CPU, the kernel's synchronous delivery a small part; a
// sampler fix shows here, and reliability must cost nothing here.
//
// reconfig-reliable: the same operations with the parameters of AS2's
// restored cells: latency uniform:0.5,2.5, 5% seeded drops, reliable
// endpoints with Backoff 1, Budget 7, Stretch 32; n = 256 for §3 (c = 2)
// and n0 = 128 for §4; a block is 8. Why: the same layers used
// differently; the asynchronous calendar and reliable.Endpoint
// dominate, so a synchronous-path gain that costs the asynchronous path
// shows here.
//
// The overlay-dos and reconfig operations pair two kinds of work, and a
// scale epoch is one operation, because a median over a mixture of
// kinds with separate costs sits between them and jumps from run to
// run.
//
// # End-to-end metrics (--trace 0)
//
//	name                     unit  better  meaning
//	node_rounds_per_s        1/s   higher  simulated node-rounds per host second spent in operations
//	cpu_s                    s     lower   process user+sys CPU (all threads, GC included) inside
//	                                       operations, per block of operations
//	op_ms_p50                ms    lower   median host time of an operation
//	setup_s                  s     lower   median construction time (graph generation, New,
//	                                       NewNetwork, spawning) of a block; on scale the sum
//	                                       of its three networks, each built as its phase
//	                                       starts; repeated until ≥ 5 samples and ≥ 0.5 s
//	peak_rss_mb              MB    lower   process maximum resident set size
//	live_bytes_per_node      B     lower   heap in use after a forced GC at the end of each
//	                                       network's phase in block 0, networks reachable,
//	                                       over the nodes they hold
//	sim_bits_per_node_round  bits  lower   modelled communication bits per node-round in block 0,
//	                                       from the layers' own accounting: kernel RoundWork
//	                                       TotalBits, §3 RapidResult.TotalBits, §5/§6
//	                                       Stats.Messages at 64 bits (S3's pricing); §4 exposes
//	                                       no total and is not counted. Deterministic: a
//	                                       simulator-only change leaves it identical.
//
// Reported in the record line only: op_ms_tail (ms, lower), the highest
// of p90, p99, p99.9, p99.99 with at least ten operations beyond it,
// given with its percentile and operation count, and only where a run
// has at least 100 operations; error_share, failed checks over checks
// attempted, which must be 0.
//
// Checks, each counted in error_share and failing the run: §4 epochs
// are Valid and Connected, ValidateTopology() == nil and the built graph
// connected; §3 runs have TV within 3× the uniform envelope; §5/§6
// under the late adversary are connected every round (Theorems 6/7); §6
// satisfies Eq1Holds() after each epoch (Lemma 18); the flood's messages
// sent equal delivered plus dropped, with nothing dropped since every
// target is alive and unblocked, and every node sends 4; the scale §5/§6
// epochs finish with no stall, sampling or assignment failure and, for
// §6, Equation (1).
//
// Protocol failure events are reported in the record line
// (protocol_failures, whole run) and as per-layer counts, but fail no
// run: §3 extraction failures and delivery failures, and §4 epoch
// Failures. The protocols count and survive them (the epoch stays valid
// and connected), the paper bounds them only with high probability, and
// at these sizes a few occur at some seeds: §3 at n = 512, c = 2 in 3 of
// 100 runs; §4 in 1 of 320 synchronous epochs at n0 = 128 and 1 of 240
// at n0 = 512; §4 under
// reliable delivery in 2 of 240 epochs at n0 = 256, one of them a
// retransmit budget running out. They are deterministic at a seed and
// hashed into the digest.
//
// # Per-layer metrics (--trace 1)
//
// The traced run records a span around every call into a layer. Block 0
// is traced whole; after it operations alternate traced and untraced.
// Span times (_ms) are medians per call, allocs_per_* mean heap
// objects per call; counts are block-0 totals and repeat exactly at a
// seed; go.* are whole-run totals scaled to one block. A layer a
// workload does not drive reads 0. Each group names the end-to-end
// metric it should move, on the workload where the layer does the work;
// "flat" names a workload where it should not move.
//
//	supernode.connected_ms, splitmerge.connected_ms (ms)
//	    → node_rounds_per_s, op_ms_p50, cpu_s on overlay-dos; flat: scale.
//	supernode.step_ms, splitmerge.step_ms (ms), supernode.allocs_per_step,
//	splitmerge.allocs_per_step, supernode.msgs_per_round, supernode.stalls (count)
//	    → node_rounds_per_s, live_bytes_per_node on scale; overlay-dos once
//	      the checker is fast.
//	supernode.snapshot_ms, splitmerge.snapshot_ms, dos.select_ms,
//	splitmerge.churn_ms (Join+Leave) (ms), splitmerge.splits_merges (count)
//	    → op_ms_p50 on overlay-dos.
//	sim.step_ms (ms), sim.msgs_per_step, sim.allocs_per_step (count),
//	sim.live_bytes_per_node (B)
//	    → node_rounds_per_s, live_bytes_per_node, peak_rss_mb on scale.
//	sim.step_ms_shards2 (ms): the flood step at 2 shards on a separate
//	    network, run after the timed part and outside the go.* totals;
//	    recorded only.
//	sampling.rapid_ms (ms), sampling.allocs_per_call, sampling.rounds,
//	sampling.failures (count), sampling.tv_over_env (ratio)
//	    → node_rounds_per_s, cpu_s on reconfig-sync; nearly flat:
//	      reconfig-reliable.
//	core.epoch_ms (ms), core.allocs_per_epoch, core.epoch_rounds (sim rounds,
//	stretch included), core.failures (count), core.max_node_bits (bits),
//	core.validate_ms, graph.connected_ms, churn.plan_ms (ms)
//	    → op_ms_p50 on reconfig-sync and reconfig-reliable.
//	reliable.retransmits, reliable.acks, reliable.delivery_failures,
//	reliable.stale, sim.deferred (count), reliable.ctl_bits (bits),
//	reliable.retx_per_ack (ratio: §4 retransmits over its base, §4 acks;
//	§3 exposes no ack count)
//	    → node_rounds_per_s, cpu_s on reconfig-reliable; read 0 on
//	      reconfig-sync.
//	go.gc_cycles (count), go.gc_pause_ms (ms), go.alloc_mb (MB)
//	    → cpu_s, op_ms_tail on every workload.
//	trace.overhead_share (ratio): median traced operation time over the
//	    median untraced one, minus 1, over the alternating operations
//	    after block 0; 0 when the run has only one block.
//	error_share (ratio), ops (count): as above, for the traced run.
package main
