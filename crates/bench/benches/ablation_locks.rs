//! Ablation A1 — the §3.5 locking design choice: POSIX-backed mutex vs
//! the lock-free MCS queue lock vs a ticket lock, uncontended and under
//! contention.

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use std::sync::Arc;
use yasmin_bench::mcs::McsLock;
use yasmin_bench::ticket::TicketLock;

fn bench_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks/uncontended");
    group.sample_size(50);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.bench_function("mcs", |b| {
        let lock = McsLock::new(0u64);
        b.iter(|| {
            *lock.lock() += 1;
        });
    });
    group.bench_function("ticket", |b| {
        let lock = TicketLock::new(0u64);
        b.iter(|| {
            *lock.lock() += 1;
        });
    });
    group.bench_function("posix(parking_lot)", |b| {
        let lock = Mutex::new(0u64);
        b.iter(|| {
            *lock.lock() += 1;
        });
    });
    group.finish();
}

fn contended<F: Fn() + Send + Sync + 'static>(threads: usize, per_thread: usize, op: Arc<F>) {
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let op = Arc::clone(&op);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    op();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
}

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks/contended_4threads");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.bench_function("mcs", |b| {
        let lock = Arc::new(McsLock::new(0u64));
        b.iter(|| {
            let l = Arc::clone(&lock);
            contended(4, 2_000, Arc::new(move || *l.lock() += 1));
        });
    });
    group.bench_function("ticket", |b| {
        let lock = Arc::new(TicketLock::new(0u64));
        b.iter(|| {
            let l = Arc::clone(&lock);
            contended(4, 2_000, Arc::new(move || *l.lock() += 1));
        });
    });
    group.bench_function("posix(parking_lot)", |b| {
        let lock = Arc::new(Mutex::new(0u64));
        b.iter(|| {
            let l = Arc::clone(&lock);
            contended(4, 2_000, Arc::new(move || *l.lock() += 1));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended);
criterion_main!(benches);
