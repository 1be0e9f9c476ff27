//! Concurrency stress tests: exactly-once, in-order delivery under
//! contended claims, exercised through the public `map_indexed` and
//! `pipeline` API.
//!
//! Many small or skewed tasks race the caller and the workers for claims
//! on the same counter, and the exactly-once property is checked from the
//! outside: every index's result lands in its slot exactly once, and
//! shared counters see every task once.

use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn contended_map_sees_every_index_exactly_once() {
    const N: usize = 20_000;
    let hits: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
    let (out, m) = cs_pool::map_indexed(8, N, |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
        i as u64
    });
    assert_eq!(out.len(), N);
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} ran once");
        assert_eq!(out[i], i as u64);
    }
    assert_eq!(m.tasks, N as u64);
    assert_eq!(m.per_worker_tasks.iter().sum::<u64>(), N as u64);
}

#[test]
fn uneven_task_sizes_still_deliver_exactly_once() {
    // Pathologically skewed work, so threads finish their claims at very
    // different rates and race for the next index constantly.
    const N: usize = 4_000;
    let mut tasks = 0;
    for round in 0..4u64 {
        let sum = AtomicU64::new(0);
        let (out, m) = cs_pool::map_indexed(6, N, |i| {
            let spin = if i % 97 == 0 { 40_000 } else { 10 };
            let mut acc = round.wrapping_add(i as u64);
            for k in 0..spin {
                acc = std::hint::black_box(acc.rotate_left(1) ^ k);
            }
            sum.fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert_eq!(out.len(), N);
        assert_eq!(sum.load(Ordering::Relaxed), N as u64, "round {round}");
        tasks += m.tasks;
    }
    assert_eq!(tasks, 4 * N as u64);
}

#[test]
fn rapid_small_jobs_do_not_lose_or_duplicate() {
    // Many tiny jobs back-to-back: stresses thread start-up, the
    // park/wake handshake and shutdown more than the claims.
    let mut total = 0u64;
    for job in 0..300usize {
        let n = 1 + (job % 17);
        let (out, m) = cs_pool::map_indexed(4, n, |i| (job * 1000 + i) as u64);
        assert_eq!(out.len(), n);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (job * 1000 + i) as u64);
        }
        assert_eq!(m.threads, n.min(4));
        total += m.tasks;
    }
    assert_eq!(
        total,
        (0..300).map(|job| 1 + (job % 17) as u64).sum::<u64>()
    );
}

#[test]
fn pipeline_delivers_every_task_once_in_order_under_skew() {
    // Skewed tasks across many small jobs, two in flight at a time: the
    // caller and the workers race for claims on both jobs constantly.
    const JOBS: usize = 200;
    const N: usize = 23;
    let hits: Vec<AtomicU64> = (0..JOBS * N).map(|_| AtomicU64::new(0)).collect();
    let (out, m) = cs_pool::pipeline(
        4,
        |job: &usize, i| {
            let spin = if (job + i) % 31 == 0 { 20_000 } else { 10 };
            let mut acc = *job as u64;
            for k in 0..spin {
                acc = std::hint::black_box(acc.rotate_left(1) ^ k);
            }
            hits[job * N + i].fetch_add(1, Ordering::Relaxed);
            (job * N + i) as u64
        },
        |pipe| {
            let mut out = Vec::with_capacity(JOBS * N);
            pipe.submit(0, N);
            for job in 0..JOBS {
                if job + 1 < JOBS {
                    pipe.submit(job + 1, N);
                }
                out.extend((0..N).map(|_| pipe.take()));
            }
            out
        },
    );
    assert_eq!(out, (0..(JOBS * N) as u64).collect::<Vec<_>>());
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ran once");
    }
    assert_eq!(m.tasks, (JOBS * N) as u64);
    assert_eq!(m.per_worker_tasks.iter().sum::<u64>(), m.tasks);
}
