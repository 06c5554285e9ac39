//! Dispatch hot-path latency experiment: regenerates every section the
//! CI perf gate reads, in one process, into `results/BENCH_PR10.json`.
//!
//! Sections: the steady-state tick/complete loop against the
//! single-owner engine (`after`) and against the sharded engine fed
//! through the lock-free command mailbox (`mailbox_feed`); the
//! **remove-heavy** queue loop and the **bursty-completion** loop; the
//! **steal** loop (one job, as a batch of one) and the
//! **cross-activation** loop; the message-plane loop and the
//! enforcement-overhead loop; **steal_batch** (eight exchanges of one
//! job against one batched exchange moving the same eight jobs),
//! **queue_scan** (a pop+push sift cycle at n = 8192 on the
//! struct-of-arrays `ReadyQueue` against the frozen inline-payload PR 4
//! layout) and **handoff** (a short-job burst drained on real sharded
//! `Runtime` threads, stealing off vs on). Every ratio the gate checks
//! comes from one process on one host.
//!
//! Each engine loop runs three times and the run with the lowest p50
//! sum is kept: the per-run medians are stable, but host noise (other
//! tenants, frequency drift) shifts whole runs, and the minimum is the
//! standard robust estimator for "what the code costs when the host is
//! quiet".

use yasmin_bench::hotpath::{self, HotpathParams, HotpathReport};

fn best_of(n: u32, mut run: impl FnMut() -> HotpathReport) -> HotpathReport {
    let score = |r: &HotpathReport| r.tick.p50_ns + r.completion.p50_ns;
    let mut best = run();
    for _ in 1..n {
        let r = run();
        if score(&r) < score(&best) {
            best = r;
        }
    }
    best
}

const REMOVE_HEAVY_N: usize = 1024;
const BURST_WORKERS: usize = 8;
const STEAL_N: usize = 256;
const STEAL_BATCH_N: usize = 64;
const STEAL_BATCH_K: usize = 8;
const QUEUE_SCAN_N: usize = 8192;
const HANDOFF_JOBS: usize = 32;
const HANDOFF_SPIN_US: u64 = 200;

fn main() {
    let p = HotpathParams::default();
    eprintln!(
        "hotpath: {} tasks, {} workers, {} iters (+{} warm-up), best of 3 runs",
        p.tasks, p.workers, p.iters, p.warmup
    );
    let direct = best_of(3, || hotpath::run(&p));
    eprintln!("hotpath: direct path done, running mailbox-fed sharded path");
    let sharded = best_of(3, || hotpath::run_sharded(&p));
    eprintln!("hotpath: sharded path done, running remove-heavy queue loop (n = {REMOVE_HEAVY_N})");
    let remove_heavy = hotpath::run_remove_heavy(REMOVE_HEAVY_N, p.iters, p.warmup);
    eprintln!(
        "hotpath: remove-heavy done, running bursty-completion loop ({BURST_WORKERS} workers)"
    );
    let burst = hotpath::run_burst(&p, BURST_WORKERS);
    eprintln!("hotpath: burst done, running steal loop (victim queue ~{STEAL_N})");
    let steal = hotpath::run_steal(STEAL_N, p.iters, p.warmup);
    eprintln!("hotpath: steal done, running cross-activation loop");
    let crossact = hotpath::run_cross_activation(p.iters, p.warmup);
    eprintln!("hotpath: cross-activation done, running message-plane loop");
    let msg = hotpath::run_msg(p.iters, p.warmup);
    eprintln!("hotpath: message plane done, running enforcement-overhead loop");
    let faults = {
        let score = |r: &yasmin_bench::hotpath::FaultReport| r.tick_off.p50_ns + r.tick_on.p50_ns;
        let mut best = hotpath::run_faults(&p);
        for _ in 1..3 {
            let r = hotpath::run_faults(&p);
            if score(&r) < score(&best) {
                best = r;
            }
        }
        best
    };
    eprintln!(
        "hotpath: enforcement done, running batch-steal loop \
         (victim queue ~{STEAL_BATCH_N}, k = {STEAL_BATCH_K})"
    );
    let steal_batch = hotpath::run_steal_batch(STEAL_BATCH_N, STEAL_BATCH_K, p.iters, p.warmup);
    eprintln!("hotpath: batch steal done, running queue key-scan loop (n = {QUEUE_SCAN_N})");
    let queue_scan = hotpath::run_queue_scan(QUEUE_SCAN_N, p.iters, p.warmup);
    eprintln!(
        "hotpath: key scan done, running real-thread hand-off burst \
         ({HANDOFF_JOBS} jobs x {HANDOFF_SPIN_US}us)"
    );
    let handoff = hotpath::run_handoff(HANDOFF_JOBS, HANDOFF_SPIN_US, 3);
    let json = hotpath::render_json(
        &direct,
        &sharded,
        &remove_heavy,
        &burst,
        &steal,
        &crossact,
        &msg,
        &faults,
        &steal_batch,
        &queue_scan,
        &handoff,
    );
    println!("{json}");
    yasmin_bench::write_result("BENCH_PR10.json", &json);
    eprintln!("wrote results/BENCH_PR10.json");
}
