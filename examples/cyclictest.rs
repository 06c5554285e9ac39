//! cyclictest on this host (§4.2): measures real wake-up latency of
//! periodic threads, bare and under the stress-ng-like load, plus the
//! YASMIN-managed variant through the real runtime.
//!
//! Run: `cargo run --release --example cyclictest`

use std::sync::Arc;
use yasmin::baselines::cyclictest::{run_real, CyclictestConfig};
use yasmin::baselines::stress::StressRunner;
use yasmin::prelude::*;
use yasmin::rt::{StealStats, TickStats};
use yasmin::sim::StressProfile;

fn yasmin_managed(
    cfg: &CyclictestConfig,
    loops_cap: usize,
    workers: usize,
) -> (yasmin::core::stats::Summary, Vec<(TickStats, StealStats)>) {
    // The same measurement, but with the threads managed by the YASMIN
    // runtime: dispatch latency is release → body start, per job. With
    // one worker the scheduling thread runs the bodies itself; with
    // more it relays every job to a worker thread of its own.
    let mut b = TaskSetBuilder::new();
    let mut ids = Vec::new();
    for i in 0..cfg.threads {
        let t = b
            .task_decl(TaskSpec::periodic(format!("cyclic{i}"), cfg.interval))
            .expect("valid spec");
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(20)))
            .expect("valid version");
        ids.push((t, v));
    }
    let ts = Arc::new(b.build().expect("valid set"));
    let config = Config::builder()
        .workers(workers)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid config");
    let mut builder = RuntimeBuilder::new(ts, config).lock_memory();
    for (t, v) in ids {
        builder = builder.body(t, v, |_| {});
    }
    let rt = builder.build().expect("runtime builds");
    let wall: std::time::Duration = (cfg.interval * (loops_cap as u64 + 2)).into();
    std::thread::sleep(wall);
    rt.stop();
    let report = rt.cleanup();
    let latency = report
        .records
        .iter()
        .map(|r| r.start_latency().as_nanos())
        .collect();
    let owners = report.tick_stats.into_iter().zip(report.steal_stats);
    (latency, owners.collect())
}

/// How each owner met its tick edges — what is left of the latency
/// above once each edge is met with a far and a near park, each armed
/// early by the lateness parks of its kind show, and, on an owner that
/// runs its bodies itself, with the edge's round pre-staged a round lead
/// ahead of the edge and its dispatch held until the edge, and why the
/// other edges were not pre-staged — what the
/// early quarter of the near parks and the holds spun, and what it gave
/// to and took from its peers (nothing here: one owner has no peer to
/// steal from, send a token to or keep an instance of). Exits with
/// status 1 if an owner met no edge at all, or parked between its edges
/// — every owner here sleeps through most of each 10 ms tick — and never
/// took a near park.
fn print_owner_stats(owners: &[(TickStats, StealStats)]) {
    for (i, (t, s)) in owners.iter().enumerate() {
        if t.edges == 0 {
            eprintln!("owner {i} ran no tick round: {t:?}");
            std::process::exit(1);
        }
        if t.near_parks == 0 {
            eprintln!("owner {i} parked between its edges but never took a near park: {t:?}");
            std::process::exit(1);
        }
        let edges = t.edges as f64;
        println!(
            "    owner {i}: {} edges, late p50 {:.0} µs / max {:.0} µs, leads {:.0} µs near + \
             {:.0} µs far + {:.0} µs round, {} pre-staged ({:.0} % of edges; not: \
             {} body crossed, {} woke late, {} no lead, {} held busy), \
             {} near parks ({:.0} %), {} far overshoots, \
             {} early wakes ({:.0} %), {:.0} µs spun ({:.2} µs per edge)",
            t.edges,
            t.late_p50_ns as f64 / 1e3,
            t.late_max_ns as f64 / 1e3,
            t.lead_ns as f64 / 1e3,
            t.far_lead_ns as f64 / 1e3,
            t.round_lead_ns as f64 / 1e3,
            t.prestaged,
            100.0 * t.prestaged as f64 / edges,
            t.body_crossed,
            t.woke_late,
            t.no_lead,
            t.held_busy,
            t.near_parks,
            100.0 * t.near_parks as f64 / edges,
            t.far_overshoots,
            t.early_wakes,
            100.0 * t.early_wakes as f64 / edges,
            t.spin_ns as f64 / 1e3,
            t.spin_ns as f64 / 1e3 / edges,
        );
        println!(
            "             {} jobs shelved, {} of them taken; {} claims took {} jobs, \
             {} probes found nothing; {} tokens bounced, {} instances kept",
            s.shelved, s.taken, s.claims, s.jobs_claimed, s.empty_probes, s.bounced, s.continued,
        );
    }
}

fn main() {
    // Shortened from the paper's -l 10000 so the example finishes in
    // seconds; pass the full protocol through `exp_table2` instead.
    let cfg = CyclictestConfig {
        threads: 6,
        interval: Duration::from_millis(10),
        loops: 200,
    };
    println!(
        "cyclictest -t {} -i {} -l {} (host kernel)\n",
        cfg.threads,
        cfg.interval.as_micros(),
        cfg.loops
    );

    let idle = run_real(&cfg);
    let (min, max, avg) = idle.as_micros_triple();
    println!("bare threads, idle host     : <{min:.0}, {max:.0}, {avg:.0}> µs");

    let stress = StressRunner::spawn(StressProfile {
        cache: 2,
        cpu: 2,
        timer: 2,
        yield_: 2,
    });
    let loaded = run_real(&cfg);
    stress.stop();
    let (min, max, avg) = loaded.as_micros_triple();
    println!("bare threads, stressed host : <{min:.0}, {max:.0}, {avg:.0}> µs");

    let (relayed, owners) = yasmin_managed(&cfg, 100, cfg.threads);
    let (min, max, avg) = relayed.as_micros_triple();
    println!(
        "YASMIN-managed, {} workers   : <{min:.0}, {max:.0}, {avg:.0}> µs",
        cfg.threads
    );
    print_owner_stats(&owners);
    let (fused, owners) = yasmin_managed(&cfg, 100, 1);
    let (min, max, avg) = fused.as_micros_triple();
    println!("YASMIN-managed, 1 worker    : <{min:.0}, {max:.0}, {avg:.0}> µs");
    print_owner_stats(&owners);
    println!(
        "\n(Idle host. With {} workers every job crosses the scheduler-thread relay —\n\
         a mailbox send, its ring and a second thread to wake: the architectural cost\n\
         Table 2 measures on the Odroid-XU4. With one worker the scheduling thread\n\
         runs the bodies itself and there is no relay: what is left is the tick\n\
         edge, and each job of a burst waiting for the ones before it.)",
        cfg.threads
    );
}
