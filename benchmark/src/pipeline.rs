//! `pipeline` — 4 DAG chains × 8 nodes at 20 ms over a 2-shard
//! [`ShardedRuntime`] with work stealing, partitioned EDF. Node `j` of
//! every chain lives on shard `PIPE_PLACEMENT[j]` (4 cross-shard and 3
//! same-shard edges per chain); every edge carries a typed `u64`
//! channel whose payload is `(chain, seq, send stamp)`; chain 0 is the
//! control chain and sends on the **high lane** (ceiling `HIGHEST`).
//! Six independent 100–300 µs tasks all homed on shard 0 keep it loaded
//! so shard 1 steals. Open loop, 1900 jobs/s.
//!
//! Headline latency: sink `completed − job.graph_release` over all four
//! chains, the median within each 1 s window and the lowest decile
//! across windows ([`crate::stats::LEVEL`]; the across-window median is
//! printed beside it).

use crate::gen::{self, PIPE_CHAINS, PIPE_NODES, PIPE_PERIOD_MS, PIPE_PLACEMENT, PIPE_SIDE_TASKS};
use crate::host::spin_us;
use crate::live::{self, Live, LiveRun, Plan, RecordIndex};
use crate::probes;
use crate::report::Outcome;
use crate::stats::{median_u64, Windows, LEVEL};
use crate::trace::{Stamps, Trace};
use crate::Args;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yasmin::core::ids::{ChannelId, TaskId, VersionId, WorkerId};
use yasmin::core::time::Duration as RtDuration;
use yasmin::prelude::*;

const PERIOD_NS: u64 = PIPE_PERIOD_MS * 1_000_000;
/// Stamp slots per task and instantiation: every job of a 1 s segment
/// with its warm-up and tail, and a second to spare.
const JOBS_PER_TASK: usize = 2_500 / PIPE_PERIOD_MS as usize;
const CONTROL_CHAIN: usize = 0;
/// Slots per channel lane: 1.3 s of chain instances. The host stalls one
/// vCPU for up to 250 ms while the other keeps producing; with 8 slots
/// a lane filled, a payload was refused and every node downstream then
/// consumed its neighbour's message (2 of 10 prototype runs).
const LANE_SLOTS: usize = 64;
const CHAIN_TASKS: usize = PIPE_CHAINS * PIPE_NODES;
/// Share of consumed payloads that may reach a job of another instance
/// before the run fails. Job `k` of a node must consume message `k` of
/// its in-edge; when a backlog drains after a host stall, job `k + 1`
/// can be stolen while job `k` still runs at home and the FIFO hands
/// each the other's message (README, pathology 6: 0–100 of ≈ 28 000
/// payloads per run). Up to this share the count is reported
/// (`payloads_displaced`, `msg.payloads_displaced`); past it every
/// displaced payload is a failed operation, so a systematic swap fails.
const DISPLACED_ALLOWED: f64 = 0.01;

fn node(chain: usize, j: usize) -> TaskId {
    TaskId::new((chain * PIPE_NODES + j) as u32)
}

/// `(chain, seq, stamp)` in one `u64`: 4 + 20 + 40 bits (the stamp is
/// nanoseconds since the run's epoch; 40 bits last 18 minutes).
fn pack(chain: usize, seq: u64, stamp_ns: u64) -> u64 {
    (chain as u64) << 60 | (seq & 0xF_FFFF) << 40 | (stamp_ns & 0xFF_FFFF_FFFF)
}

fn unpack(p: u64) -> (usize, u64, u64) {
    ((p >> 60) as usize, (p >> 40) & 0xF_FFFF, p & 0xFF_FFFF_FFFF)
}

pub struct Declared {
    pub taskset: Arc<TaskSet>,
    /// `edges[c][j]`: the channel from node `j` to node `j + 1`.
    edges: Vec<Vec<ChannelId>>,
    versions: Vec<VersionId>,
}

pub fn taskset() -> Declared {
    let mut b = TaskSetBuilder::new();
    let mut versions = Vec::new();
    let wcet = |us| VersionSpec::new("v", RtDuration::from_micros(us));
    for c in 0..PIPE_CHAINS {
        for (j, &shard) in PIPE_PLACEMENT.iter().enumerate() {
            let spec = if j == 0 {
                TaskSpec::periodic(format!("c{c}n0"), RtDuration::from_millis(PIPE_PERIOD_MS))
            } else {
                TaskSpec::graph_node(format!("c{c}n{j}"))
            };
            let t = b
                .task_decl(spec.on_worker(WorkerId::new(shard)))
                .expect("valid chain node");
            versions.push(b.version_decl(t, wcet(100)).expect("valid version"));
        }
    }
    for i in 0..PIPE_SIDE_TASKS {
        let t = b
            .task_decl(
                TaskSpec::periodic(format!("side{i}"), RtDuration::from_millis(PIPE_PERIOD_MS))
                    .on_worker(WorkerId::new(0)),
            )
            .expect("valid side task");
        versions.push(b.version_decl(t, wcet(400)).expect("valid version"));
    }
    let mut edges = Vec::new();
    for c in 0..PIPE_CHAINS {
        let mut chain = Vec::new();
        for j in 0..PIPE_NODES - 1 {
            let name = format!("c{c}e{j}");
            let ch = if c == CONTROL_CHAIN {
                b.channel_decl_prioritized(name, LANE_SLOTS, 8, LANE_SLOTS, Priority::HIGHEST)
            } else {
                b.channel_decl(name, LANE_SLOTS, 8)
            };
            b.channel_connect(node(c, j), node(c, j + 1), ch)
                .expect("fresh channel per edge");
            chain.push(ch);
        }
        edges.push(chain);
    }
    Declared {
        taskset: Arc::new(b.build().expect("valid pipeline set")),
        edges,
        versions,
    }
}

pub fn config() -> Config {
    Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid config")
}

/// What the bodies note while they run; read after the drain.
struct Payloads {
    /// A node ran without a message waiting on its in-edge.
    missing: AtomicU64,
    /// The message came from another chain.
    wrong_chain: AtomicU64,
    /// The out-edge's lane was full.
    send_failed: AtomicU64,
    /// Which instance's message each job consumed: row `task`, slot
    /// `job.seq` holds `(message seq + 1, 1)`.
    consumed: Stamps,
}

struct Tracing {
    /// Body spans by `(task, seq)`.
    bodies: Stamps,
    /// `(send stamp, recv stamp)` by `(consuming task, seq)`.
    lanes: Stamps,
}

/// One full set-up. Traced bodies stamp into row `row0 + task`.
fn build(
    seed: u64,
    epoch: Instant,
    tracing: Option<(&Arc<Tracing>, usize)>,
) -> (Live, Duration, Arc<Payloads>) {
    let inputs = gen::pipeline(seed);
    let d = taskset();
    let payloads = Arc::new(Payloads {
        missing: AtomicU64::new(0),
        wrong_chain: AtomicU64::new(0),
        send_failed: AtomicU64::new(0),
        consumed: Stamps::new(CHAIN_TASKS, JOBS_PER_TASK),
    });
    let mut builder =
        ShardedRuntimeBuilder::new(Arc::clone(&d.taskset), config()).work_stealing(true);

    for c in 0..PIPE_CHAINS {
        let mut rx_prev = None;
        for j in 0..PIPE_NODES {
            let tx = (j + 1 < PIPE_NODES).then(|| {
                let (tx, rx) = builder
                    .channel::<u64>(d.edges[c][j])
                    .expect("declared u64 channel");
                (tx, rx)
            });
            let (tx, rx_next) = tx.map_or((None, None), |(tx, rx)| (Some(tx), Some(rx)));
            let rx = std::mem::replace(&mut rx_prev, rx_next);
            let us = inputs.node_body_us[c][j];
            let p = Arc::clone(&payloads);
            let tr = tracing.map(|(t, row0)| (Arc::clone(t), row0));
            let task = node(c, j);
            let ti = task.index();
            builder = builder.body(task, d.versions[ti], move |ctx| {
                let seq = ctx.job.seq;
                let t0 = epoch.elapsed().as_nanos() as u64 + 1;
                if let Some(rx) = &rx {
                    match rx.recv() {
                        Some(m) => {
                            let (mc, mseq, sent) = unpack(m);
                            if mc != c {
                                p.wrong_chain.fetch_add(1, Ordering::Relaxed);
                            }
                            p.consumed.put(ti, seq, mseq + 1, 1);
                            if let Some((tr, row0)) = &tr {
                                tr.lanes.put(row0 + ti, seq, sent, t0 & 0xFF_FFFF_FFFF);
                            }
                        }
                        None => {
                            p.missing.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                spin_us(us);
                let t1 = epoch.elapsed().as_nanos() as u64 + 1;
                if let Some(tx) = &tx {
                    let m = pack(c, seq, t1);
                    let sent = if c == CONTROL_CHAIN {
                        tx.send_high(m)
                    } else {
                        tx.send(m)
                    };
                    if sent.is_err() {
                        p.send_failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some((tr, row0)) = &tr {
                    tr.bodies.put(row0 + ti, seq, t0, t1);
                }
            });
        }
    }
    for (i, &us) in inputs.side_body_us.iter().enumerate() {
        let ti = CHAIN_TASKS + i;
        let tr = tracing.map(|(t, row0)| (Arc::clone(t), row0));
        builder = builder.body(TaskId::new(ti as u32), d.versions[ti], move |ctx| {
            let t0 = epoch.elapsed().as_nanos() as u64 + 1;
            spin_us(us);
            if let Some((tr, row0)) = &tr {
                let t1 = epoch.elapsed().as_nanos() as u64 + 1;
                tr.bodies.put(row0 + ti, ctx.job.seq, t0, t1);
            }
        });
    }
    let t = Instant::now();
    let rt = builder.build().expect("pipeline runtime builds");
    (Live::Sharded(rt), t.elapsed(), payloads)
}

struct Measured {
    chain: Windows,
    due: u64,
    lost: u64,
    /// Jobs that consumed another instance's message (see
    /// [`DISPLACED_ALLOWED`]).
    displaced: u64,
}

fn is_root(t: TaskId) -> bool {
    t.index() >= CHAIN_TASKS || t.index().is_multiple_of(PIPE_NODES)
}

const TASKS: usize = CHAIN_TASKS + PIPE_SIDE_TASKS;

fn measure(run: &LiveRun, built: &[Arc<Payloads>], out: &mut Outcome) -> Measured {
    let (mut due, mut lost) = (0, 0);
    let (mut displaced, mut undelivered, mut consumed) = (0u64, 0u64, 0u64);
    let mut chain = run.windows();
    for (si, seg) in run.segments.iter().enumerate() {
        let idx = RecordIndex::new(&seg.report.records);
        for c in 0..PIPE_CHAINS {
            let seqs = idx.due_seqs(node(c, 0), PERIOD_NS, run.from_ns, run.to_ns);
            // Every node of the chain owes exactly its root's instances.
            for j in 0..PIPE_NODES {
                let (d, l) = live::conservation(&idx, node(c, j), seqs.clone());
                due += d;
                lost += l;
            }
            for k in seqs {
                let Some(sink) = idx.get(node(c, PIPE_NODES - 1), k) else {
                    continue;
                };
                let released = sink.job.graph_release.as_nanos();
                if let Some(at) = run.at(si, released) {
                    chain.push(at, (sink.completed.as_nanos() - released) as f64 / 1e3);
                }
            }
        }
        for i in 0..PIPE_SIDE_TASKS {
            let task = TaskId::new((CHAIN_TASKS + i) as u32);
            let seqs = idx.due_seqs(task, PERIOD_NS, run.from_ns, run.to_ns);
            let (d, l) = live::conservation(&idx, task, seqs);
            due += d;
            lost += l;
        }
        // Job k of a node must have consumed message k of its in-edge:
        // compared in job order, every mismatch is a displaced payload.
        // Sorted, the n jobs a node completed must have consumed
        // exactly the first n messages: anything else was lost or
        // duplicated.
        for t in (0..CHAIN_TASKS).filter(|t| t % PIPE_NODES != 0) {
            let task = TaskId::new(t as u32);
            let n = (0..JOBS_PER_TASK as u64)
                .take_while(|&k| idx.get(task, k).is_some())
                .count() as u64;
            let mut got: Vec<u64> = (0..n)
                .filter_map(|k| built[si].consumed.get(t, k).map(|(m, _)| m - 1))
                .collect();
            consumed += n;
            displaced += got.iter().zip(0..).filter(|&(&m, k)| m != k).count() as u64;
            got.sort_unstable();
            undelivered += n - got.iter().zip(0..).filter(|&(&m, k)| m == k).count() as u64;
        }
        let s = &seg.report.engine_stats;
        out.fail(
            s.released.abs_diff(seg.report.records.len() as u64),
            "pipeline: engine released != records returned",
        );
        out.fail(s.stolen.abs_diff(s.donated), "pipeline: stolen != donated");
    }
    out.attempted += due;
    out.fail(
        lost,
        "pipeline: node count != its root's (job due in the span never Completed)",
    );
    let count = |f: fn(&Payloads) -> &AtomicU64| -> u64 {
        built.iter().map(|b| f(b).load(Ordering::Relaxed)).sum()
    };
    out.fail(
        count(|p| &p.missing),
        "pipeline: node ran with no payload on its in-edge",
    );
    out.fail(
        count(|p| &p.wrong_chain),
        "pipeline: payload from the wrong chain",
    );
    out.fail(
        undelivered,
        "pipeline: payload lost or duplicated on an edge",
    );
    if displaced as f64 > consumed as f64 * DISPLACED_ALLOWED {
        out.fail(
            displaced,
            "pipeline: job consumed another instance's payload (past the stall allowance)",
        );
    }
    out.fail(
        count(|p| &p.send_failed),
        "pipeline: channel lane full on send",
    );
    Measured {
        chain,
        due,
        lost,
        displaced,
    }
}

fn live_run(
    args: &Args,
    plan: Plan,
    epoch: Instant,
    tracing: Option<&Arc<Tracing>>,
) -> (LiveRun, Vec<Arc<Payloads>>) {
    let mut built = Vec::new();
    let run = live::run_live(
        plan,
        |cycle| {
            let (live, t, b) = build(args.seed, epoch, tracing.map(|t| (t, cycle * TASKS)));
            built.push(b);
            (live, t)
        },
        |_, _, _| {},
    );
    (run, built)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    if !args.trace {
        let (run, built) = live_run(args, Plan::segmented(args.span()), epoch, None);
        let mut m = measure(&run, &built, &mut out);
        let rs = live::record_stats(&run, is_root);
        out.e2e = vec![
            ("setup_s", run.setup_s()),
            ("peak_rss_mb", run.peak_rss_mb),
            ("latency_us", m.chain.level_of(0.5, 10).unwrap_or(f64::NAN)),
            ("cpu_us_per_job", run.cpu_us_per_job(LEVEL)),
        ];
        let total = |f: fn(&yasmin::sched::EngineStats) -> u64| {
            run.segments
                .iter()
                .map(|s| f(&s.report.engine_stats))
                .sum::<u64>() as f64
        };
        let secs = (live::WARMUP.as_secs_f64() + 1.0) * run.segments.len() as f64;
        out.notes = vec![
            ("latency_wmed_us", m.chain.median_of(0.5, 10).unwrap_or(0.0)),
            ("cpu_wmed_us_per_job", run.cpu_us_per_job(0.5)),
            ("latency_samples", m.chain.samples() as f64),
            ("latency_windows", m.chain.full_windows(10) as f64),
            ("deadline_misses_ratio", rs.miss_ratio),
            ("payloads_displaced", m.displaced as f64),
            ("steals_per_s", total(|s| s.stolen) / secs),
            (
                "cross_activations_per_s",
                total(|s| s.cross_activations) / secs,
            ),
        ];
        return out;
    }

    let plan = Plan::segmented(args.traced_span());
    let (plain, plain_built) = live_run(args, plan, epoch, None);
    let plain_lat = measure(&plain, &plain_built, &mut out)
        .chain
        .level_of(0.5, 10)
        .unwrap_or(f64::NAN);
    drop(plain);

    let tracing = Arc::new(Tracing {
        bodies: Stamps::new(TASKS * plan.segments, JOBS_PER_TASK),
        lanes: Stamps::new(TASKS * plan.segments, JOBS_PER_TASK),
    });
    let (run, built) = live_run(args, plan, epoch, Some(&tracing));
    let mut m = measure(&run, &built, &mut out);
    let rs = live::record_stats(&run, is_root);
    let chain_p50 = m.chain.level_of(0.5, 10).unwrap_or(f64::NAN);
    out.latency_layers(&mut m.chain);
    out.layer("e2e.cpu_wmed_us_per_job", run.cpu_us_per_job(0.5));
    // Inner nodes are released at their graph's release, so a per-job
    // wait only means something for roots; inner nodes get hops below.
    let mut w = live::wait_windows(&run, |r| is_root(r.job.task));
    out.wait_layers(&mut w);
    live::rt_layers(&run, &rs, m.due, m.lost, &mut out);
    out.layer(
        "harness.trace_overhead_pct",
        (chain_p50 - plain_lat) / plain_lat * 100.0,
    );

    // Hops, lanes and spans: chain ⊃ job ⊃ {wait, body}, `hop` between
    // consecutive jobs of a chain instance; one id per chain instance.
    let (mut cross, mut local) = (Vec::new(), Vec::new());
    // Per chain instance: root wait, Σ cross hops, Σ local hops, Σ bodies.
    let mut parts: [Vec<u64>; 4] = Default::default();
    let (mut lane_normal, mut lane_high) = (Vec::new(), Vec::new());
    let mut trace = Trace::with_capacity(rs.completed_in_span as usize * 4);
    for (si, seg) in run.segments.iter().enumerate() {
        let idx = RecordIndex::new(&seg.report.records);
        let row0 = si * TASKS;
        let skew = live::clock_skew(seg, |r| {
            tracing.bodies.get(row0 + r.job.task.index(), r.job.seq)
        });
        let at = |t: u64| run.trace_ns(si, t);
        for c in 0..PIPE_CHAINS {
            for k in idx.due_seqs(node(c, 0), PERIOD_NS, run.from_ns, run.to_ns) {
                let recs: Vec<_> = (0..PIPE_NODES)
                    .filter_map(|j| idx.get(node(c, j), k))
                    .collect();
                if recs.len() != PIPE_NODES {
                    continue; // already counted as lost
                }
                let id = (si as u64) << 48 | (c as u64) << 32 | k;
                let (first, last) = (recs[0], recs[PIPE_NODES - 1]);
                let chain_span = trace.span(
                    "chain",
                    id,
                    None,
                    at(first.job.release.as_nanos()),
                    at(last.completed.as_nanos()),
                );
                parts[0].push(first.start_latency().as_nanos());
                let (mut bodies, mut cross_sum, mut local_sum) = (0, 0, 0);
                for (j, r) in recs.iter().enumerate() {
                    let ready = if j == 0 {
                        r.job.release.as_nanos()
                    } else {
                        recs[j - 1].completed.as_nanos()
                    };
                    let row = row0 + r.job.task.index();
                    if j > 0 {
                        let hop = r.started.as_nanos().saturating_sub(ready);
                        let kind = if PIPE_PLACEMENT[j] != PIPE_PLACEMENT[j - 1] {
                            cross.push(hop);
                            cross_sum += hop;
                            "rt.hop_cross"
                        } else {
                            local.push(hop);
                            local_sum += hop;
                            "rt.hop_local"
                        };
                        trace.span(
                            kind,
                            id,
                            Some(chain_span),
                            at(ready),
                            at(r.started.as_nanos()),
                        );
                        if let Some((sent, got)) = tracing.lanes.get(row, k) {
                            let lane = got.saturating_sub(sent);
                            if c == CONTROL_CHAIN {
                                lane_high.push(lane);
                            } else {
                                lane_normal.push(lane);
                            }
                            trace.span(
                                "msg.lane",
                                id,
                                Some(chain_span),
                                at(sent.saturating_sub(skew)),
                                at(got.saturating_sub(skew)),
                            );
                        }
                    }
                    let job = trace.span(
                        "rt.job",
                        id,
                        Some(chain_span),
                        at(ready),
                        at(r.completed.as_nanos()),
                    );
                    trace.span(
                        "rt.wait",
                        id,
                        Some(job),
                        at(ready),
                        at(r.started.as_nanos()),
                    );
                    if let Some((s, e)) = tracing.bodies.get(row, k) {
                        trace.span("body", id, Some(job), at(s - skew), at(e - skew));
                    }
                    bodies += r.completed.as_nanos() - r.started.as_nanos();
                }
                parts[1].push(cross_sum);
                parts[2].push(local_sum);
                parts[3].push(bodies);
            }
        }
    }
    out.layer("rt.hop_cross_p50_us", median_u64(&cross) / 1e3);
    out.layer("rt.hop_local_p50_us", median_u64(&local) / 1e3);
    // An instance's latency *is* root wait + its 4 cross hops + its 3
    // local hops + its 8 bodies; the ratio says how well the medians of
    // those four parts add up to the median of the whole.
    let model: f64 = parts.iter().map(|p| median_u64(p) / 1e3).sum();
    out.layer("rt.chain_model_ratio", model / chain_p50);
    out.layer("msg.normal_lane_p50_us", median_u64(&lane_normal) / 1e3);
    out.layer("msg.high_lane_p50_us", median_u64(&lane_high) / 1e3);
    out.layer("msg.payloads_displaced", m.displaced as f64);
    out.layer("harness.spans", trace.len() as f64);
    out.trace = Some(trace);

    probes::own_set(&taskset().taskset, &config(), &mut out);
    // The layers this workload's hops are made of: rings, mailbox
    // lanes, the load board, the message plane and the shard protocol.
    probes::ring_probes(&mut out);
    probes::msg_probes(&mut out);
    probes::shard_replay(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        assert_eq!(
            unpack(pack(3, 0xF_FFFF, 0xFF_FFFF_FFFF)),
            (3, 0xF_FFFF, 0xFF_FFFF_FFFF)
        );
        assert_eq!(unpack(pack(0, 17, 123_456_789)), (0, 17, 123_456_789));
    }

    #[test]
    fn the_declared_set_has_the_documented_shape() {
        let d = taskset();
        assert_eq!(d.taskset.len(), 38);
        assert_eq!(d.taskset.edges().len(), 28);
        let cross = d
            .taskset
            .edges()
            .iter()
            .filter(|e| {
                let w = |t: TaskId| d.taskset.tasks()[t.index()].spec().assigned_worker();
                w(e.src) != w(e.dst)
            })
            .count();
        assert_eq!(cross, 16, "4 cross-shard edges per chain");
        assert_eq!(d.taskset.roots().count(), 10);
    }
}
