//! The CI perf-regression gate: **same-host** bounds on p50 medians of
//! the dispatch hot path, all read from one `results/BENCH_PR10.json`
//! whose two sides of every ratio were measured in the same process —
//! so each bound gates code, not runner hardware, and is valid on any
//! host (`exp_hotpath` regenerates the file):
//!
//! * the mailbox-fed sharded path within +100% of the direct path;
//! * `remove_heavy.remove_then_pop` within 2× of `remove_heavy.pop`
//!   — the index-heap asymptotics bound: a removal at n = 1024 costs
//!   no more than a pop, i.e. no O(n) scan hides on the path;
//! * `burst.batched` within +25% of `burst.sequential` — the batch
//!   completion API must never cost more than per-completion calls
//!   (it runs one dispatch round instead of one per completion);
//! * `steal.steal_cycle` within 2× of `steal.local_pop` — the full
//!   work-stealing hand-off of one job (probe + O(log n) detach +
//!   thief adoption, as a batch of one) costs no more than twice a
//!   local dispatch, i.e. no scan or lock hides on the migration path;
//! * `cross_activation.routed` within 3× of
//!   `cross_activation.local_fire` — completion + outbox drain + the
//!   destination's `CrossActivate` round is two engine rounds plus
//!   routing, bounded against the single local round;
//! * `msg.routed_send` within 3× of `msg.local_send` — a high-lane
//!   post whose receiver lives on a foreign shard pays one peer-lane
//!   hop on top of the home-shard post, and nothing else;
//! * `fault.tick_on` within +15% of `fault.tick_off` — arming
//!   WCET-overrun enforcement and the miss trip wire adds only the
//!   busy-worker scan to the tick, never a task-count-dependent pass;
//! * `steal_batch.single` at least **200% of** `steal_batch.batch` —
//!   the batched exchange must move its eight jobs at least twice as
//!   fast as eight exchanges of one job (the request/grant round trips
//!   and dispatch rounds amortise, or the batch plumbing is pure
//!   overhead);
//! * `queue_scan.soa` within +15% of `queue_scan.inline_ref` — the
//!   struct-of-arrays key sift at n = 8192 must not regress behind
//!   the frozen inline-payload PR 4 layout it replaced (it should
//!   win; the slack absorbs timer noise at ~100 ns medians).
//!
//! Usage: `cargo run --release -p yasmin-bench --bin perf_gate`
//! (run `exp_hotpath` first if `results/BENCH_PR10.json` is missing).

use yasmin_bench::compare::{gate_mailbox_overhead, gate_min_speedup, gate_ratio, GateCheck};

const MAX_MAILBOX_OVERHEAD_PCT: u64 = 100;
/// remove-then-pop ≤ 2× pop: +100% over the denominator.
const MAX_REMOVE_OVER_POP_PCT: u64 = 100;
const MAX_BATCH_OVER_SEQUENTIAL_PCT: u64 = 25;
/// steal cycle ≤ 2× local pop: +100% over the denominator.
const MAX_STEAL_OVER_LOCAL_PCT: u64 = 100;
/// routed cross-shard activation ≤ 3× local firing.
const MAX_ROUTED_OVER_LOCAL_PCT: u64 = 200;
/// routed high-lane post ≤ 3× home-shard post.
const MAX_ROUTED_SEND_OVER_LOCAL_PCT: u64 = 200;
/// armed WCET-overrun enforcement tick ≤ 1.15× unarmed tick.
const MAX_ENFORCEMENT_OVER_OFF_PCT: u64 = 15;
/// eight exchanges of one job ≥ 2× one batched exchange.
const MIN_SINGLE_OVER_BATCH_PCT: u64 = 200;
/// SoA pop+push sift ≤ 1.15× the frozen inline-payload layout.
const MAX_SOA_OVER_INLINE_PCT: u64 = 15;

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_gate: cannot read {path}: {e}");
            eprintln!(
                "perf_gate: run `cargo run --release -p yasmin-bench --bin exp_hotpath` first"
            );
            std::process::exit(2);
        }
    }
}

fn report(title: &str, checks: &Result<Vec<GateCheck>, String>) -> bool {
    match checks {
        Ok(checks) => {
            println!("{title}");
            let mut failed = false;
            for c in checks {
                println!("  {c}");
                failed |= c.regressed;
            }
            failed
        }
        Err(msg) => {
            eprintln!("perf_gate: {msg}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let current = read("results/BENCH_PR10.json");
    let mut failed = false;
    failed |= report(
        &format!(
            "perf_gate: mailbox-feed vs direct, same host (limit +{MAX_MAILBOX_OVERHEAD_PCT}%)"
        ),
        &gate_mailbox_overhead(&current, MAX_MAILBOX_OVERHEAD_PCT),
    );
    failed |= report(
        &format!(
            "perf_gate: remove-then-pop vs pop at n=1024, same host \
             (limit +{MAX_REMOVE_OVER_POP_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("remove_heavy", "remove_then_pop"),
            ("remove_heavy", "pop"),
            MAX_REMOVE_OVER_POP_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: batched vs sequential completion bursts, same host \
             (limit +{MAX_BATCH_OVER_SEQUENTIAL_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("burst", "batched"),
            ("burst", "sequential"),
            MAX_BATCH_OVER_SEQUENTIAL_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: steal cycle vs local pop dispatch, same host \
             (limit +{MAX_STEAL_OVER_LOCAL_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("steal", "steal_cycle"),
            ("steal", "local_pop"),
            MAX_STEAL_OVER_LOCAL_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: routed cross-shard activation vs local DAG firing, same \
             host (limit +{MAX_ROUTED_OVER_LOCAL_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("cross_activation", "routed"),
            ("cross_activation", "local_fire"),
            MAX_ROUTED_OVER_LOCAL_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: routed vs home-shard high-lane post, same host \
             (limit +{MAX_ROUTED_SEND_OVER_LOCAL_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("msg", "routed_send"),
            ("msg", "local_send"),
            MAX_ROUTED_SEND_OVER_LOCAL_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: armed enforcement tick vs unarmed tick, same host \
             (limit +{MAX_ENFORCEMENT_OVER_OFF_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("fault", "tick_on"),
            ("fault", "tick_off"),
            MAX_ENFORCEMENT_OVER_OFF_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: 8 exchanges of one job vs one batched exchange, same host \
             (floor {MIN_SINGLE_OVER_BATCH_PCT}%)"
        ),
        &gate_min_speedup(
            &current,
            ("steal_batch", "single"),
            ("steal_batch", "batch"),
            MIN_SINGLE_OVER_BATCH_PCT,
        )
        .map(|c| vec![c]),
    );
    failed |= report(
        &format!(
            "perf_gate: SoA key sift vs frozen inline-payload layout at n=8192, \
             same host (limit +{MAX_SOA_OVER_INLINE_PCT}%)"
        ),
        &gate_ratio(
            &current,
            ("queue_scan", "soa"),
            ("queue_scan", "inline_ref"),
            MAX_SOA_OVER_INLINE_PCT,
        )
        .map(|c| vec![c]),
    );
    if failed {
        eprintln!("perf_gate: FAIL — dispatch-path p50 regressed past the gate");
        std::process::exit(1);
    }
    println!("perf_gate: PASS");
}
