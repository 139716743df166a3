//! Runtime performance counters.
//!
//! HPX exposes introspection counters under paths like
//! `/threads/count/cumulative`; this module is the equivalent: cheap
//! relaxed atomics bumped on the hot paths, snapshotted on demand.
//!
//! The per-task counters (spawned, executed, busy time) live in one
//! cache-line-padded stats lane per worker, plus one lane for spawns
//! from threads outside the pool, so the spawn → run path never writes a
//! line another worker writes. Locality totals are sums over the lanes,
//! taken when read.
//!
//! Once a runtime is idle (`wait_idle`), the counters satisfy two
//! conservation identities (pinned by tests):
//! `tasks_spawned == tasks_executed + tasks_panicked`, and — summed over
//! every locality of a loopback cluster — `parcels_sent ==
//! parcels_received` (response parcels included).
//!
//! The flat [`Snapshot`] is the quick view; the hierarchical,
//! per-worker view lives in [`crate::introspect`], whose registry this
//! module populates via `register_runtime_counters`.

use crate::introspect::{CounterPath, CounterRegistry, Instance};
use crate::runtime::Core;
use crate::sched::Scheduler;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Monotone event counters for one runtime.
#[derive(Debug)]
pub struct Counters {
    /// One lane per worker, then one for threads outside the pool.
    lanes: Box<[WorkerStat]>,
    /// Tasks whose closure panicked.
    pub tasks_panicked: AtomicUsize,
    /// Future continuations run.
    pub continuations_run: AtomicUsize,
    /// Parcels sent from this locality.
    pub parcels_sent: AtomicUsize,
    /// Parcels received by this locality.
    pub parcels_received: AtomicUsize,
}

/// A point-in-time copy of all counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Tasks handed to the scheduler.
    pub tasks_spawned: usize,
    /// Tasks that finished executing.
    pub tasks_executed: usize,
    /// Tasks whose closure panicked.
    pub tasks_panicked: usize,
    /// Future continuations run.
    pub continuations_run: usize,
    /// Successful steal operations (each may move a whole batch).
    pub tasks_stolen: usize,
    /// Tasks pushed to the scheduler: every spawn is one push, so this
    /// reads the same as `tasks_spawned`.
    pub sched_pushes: usize,
    /// Victim queues probed while stealing (hits and misses).
    pub steal_attempts: usize,
    /// Successful batched steals (`steal_batch_and_pop` into a deque).
    pub steal_batches: usize,
    /// Times a worker parked on the scheduler condvar.
    pub worker_parks: usize,
    /// Notify syscalls issued to wake parked workers.
    pub worker_wakes: usize,
    /// Parcels sent.
    pub parcels_sent: usize,
    /// Parcels received.
    pub parcels_received: usize,
}

impl Counters {
    /// Zeroed counters for a runtime of `workers` workers.
    pub(crate) fn new(workers: usize) -> Counters {
        Counters {
            lanes: (0..=workers).map(|_| WorkerStat::default()).collect(),
            tasks_panicked: AtomicUsize::new(0),
            continuations_run: AtomicUsize::new(0),
            parcels_sent: AtomicUsize::new(0),
            parcels_received: AtomicUsize::new(0),
        }
    }

    /// The stats lane of worker `w`, or with `None` the lane shared by
    /// every thread outside the pool.
    pub(crate) fn lane(&self, w: Option<usize>) -> &WorkerStat {
        &self.lanes[w.unwrap_or(self.lanes.len() - 1)]
    }

    fn lane_sum(&self, field: impl Fn(&WorkerStat) -> &AtomicUsize) -> usize {
        self.lanes
            .iter()
            .map(|l| field(l).load(Ordering::Relaxed))
            .sum()
    }

    /// Tasks handed to the scheduler, summed over every lane.
    pub fn tasks_spawned(&self) -> usize {
        self.lane_sum(|l| &l.tasks_spawned)
    }

    /// Tasks that finished executing without panicking: every lane's
    /// runs minus the panicked ones. Exact once the runtime is idle.
    pub fn tasks_executed(&self) -> usize {
        let panicked = self.tasks_panicked.load(Ordering::Relaxed);
        self.lane_sum(|l| &l.tasks_executed)
            .saturating_sub(panicked)
    }

    /// Capture a snapshot, merging in the scheduler's own counters.
    pub fn snapshot(&self, sched: &Scheduler) -> Snapshot {
        let tasks_spawned = self.tasks_spawned();
        Snapshot {
            tasks_spawned,
            tasks_executed: self.tasks_executed(),
            tasks_panicked: self.tasks_panicked.load(Ordering::Relaxed),
            continuations_run: self.continuations_run.load(Ordering::Relaxed),
            tasks_stolen: sched.stat_stolen.load(Ordering::Relaxed),
            sched_pushes: tasks_spawned,
            steal_attempts: sched.stat_steal_attempts.load(Ordering::Relaxed),
            steal_batches: sched.stat_steal_batches.load(Ordering::Relaxed),
            worker_parks: sched.stat_parks.load(Ordering::Relaxed),
            worker_wakes: sched.stat_wakes.load(Ordering::Relaxed),
            parcels_sent: self.parcels_sent.load(Ordering::Relaxed),
            parcels_received: self.parcels_received.load(Ordering::Relaxed),
        }
    }
}

/// One worker's task stats, feeding the `/threads{locality#L/worker#W}/...`
/// counter paths and, summed, the locality totals. Only its worker
/// writes a worker lane; the outside lane counts spawns only.
///
/// Lanes sit in one array with a 128-byte stride, so the counters of two
/// lanes are at least 104 bytes apart and never share a cache line. The
/// stride comes from padding, not `CachePadded`: a 128-byte-aligned
/// block here slowed the set-up that follows a runtime build (DESIGN.md
/// §2).
#[derive(Debug, Default)]
pub(crate) struct WorkerStat {
    /// Tasks spawned from this worker.
    pub(crate) tasks_spawned: AtomicUsize,
    /// Tasks this worker ran to completion (panicked or not).
    pub(crate) tasks_executed: AtomicUsize,
    /// Wall time this worker spent inside outermost tasks, nanoseconds.
    /// Tasks it help-executes while a task waits are already inside that
    /// task's time and are not added again.
    pub(crate) busy_ns: AtomicU64,
    _pad: [u64; 13],
}

const _: () = assert!(std::mem::size_of::<WorkerStat>() == 128);

/// Populate `registry` with the standard counter set of one runtime:
/// locality-total counters for every [`Snapshot`] field plus per-worker
/// cumulative-task and busy-time counters. Probes capture the core and
/// evaluate a relaxed atomic load at snapshot time.
pub(crate) fn register_runtime_counters(registry: &CounterRegistry, locality: u32, core: &Arc<Core>) {
    macro_rules! counter {
        ($object:expr, $name:expr, $field:ident) => {{
            let c = core.clone();
            registry.register(
                CounterPath::new($object, locality, Instance::Total, $name),
                move || c.counters.$field.load(Ordering::Relaxed) as u64,
            );
        }};
    }
    macro_rules! summed {
        ($name:expr, $sum:ident) => {{
            let c = core.clone();
            registry.register(
                CounterPath::new("threads", locality, Instance::Total, $name),
                move || c.counters.$sum() as u64,
            );
        }};
    }
    macro_rules! sched_counter {
        ($name:expr, $field:ident) => {{
            let c = core.clone();
            registry.register(
                CounterPath::new("threads", locality, Instance::Total, $name),
                move || c.sched.$field.load(Ordering::Relaxed) as u64,
            );
        }};
    }
    summed!("count/cumulative", tasks_executed);
    summed!("count/spawned", tasks_spawned);
    summed!("count/pushes", tasks_spawned);
    counter!("threads", "count/panicked", tasks_panicked);
    counter!("lcos", "count/continuations", continuations_run);
    counter!("parcels", "count/sent", parcels_sent);
    counter!("parcels", "count/received", parcels_received);
    sched_counter!("count/stolen", stat_stolen);
    sched_counter!("count/steal-attempts", stat_steal_attempts);
    sched_counter!("count/steal-batches", stat_steal_batches);
    sched_counter!("count/parks", stat_parks);
    sched_counter!("count/wakes", stat_wakes);
    for w in 0..core.sched.workers() {
        let c = core.clone();
        registry.register(
            CounterPath::new("threads", locality, Instance::Worker(w), "count/cumulative"),
            move || {
                c.counters
                    .lane(Some(w))
                    .tasks_executed
                    .load(Ordering::Relaxed) as u64
            },
        );
        let c = core.clone();
        registry.register(
            CounterPath::new("threads", locality, Instance::Worker(w), "time/busy-ns"),
            move || c.counters.lane(Some(w)).busy_ns.load(Ordering::Relaxed),
        );
    }
    // Latency-histogram probes (nanoseconds): locality-total p50/p99 and
    // sample count for every channel, plus per-worker task quantiles —
    // the `/latency{locality#L/worker#W}/task/p99` paths.
    for ch in crate::introspect::LatencyChannel::ALL {
        for (qname, q) in [("p50", 0.5), ("p99", 0.99)] {
            let c = core.clone();
            registry.register(
                CounterPath::new(
                    "latency",
                    locality,
                    Instance::Total,
                    format!("{}/{qname}", ch.name()),
                ),
                move || c.latency.merged(ch).value_at_quantile(q),
            );
        }
        let c = core.clone();
        registry.register(
            CounterPath::new(
                "latency",
                locality,
                Instance::Total,
                format!("{}/count", ch.name()),
            ),
            move || c.latency.merged(ch).count(),
        );
    }
    for w in 0..core.sched.workers() {
        for (qname, q) in [("p50", 0.5), ("p99", 0.99)] {
            let c = core.clone();
            registry.register(
                CounterPath::new("latency", locality, Instance::Worker(w), format!("task/{qname}")),
                move || {
                    c.latency
                        .lane(crate::introspect::LatencyChannel::Task, w)
                        .value_at_quantile(q)
                },
            );
        }
    }
}

impl Snapshot {
    /// Interval delta `self - earlier`, field by field (saturating, so a
    /// stale `earlier` from before a counter reset can't underflow).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_panicked: self.tasks_panicked.saturating_sub(earlier.tasks_panicked),
            continuations_run: self
                .continuations_run
                .saturating_sub(earlier.continuations_run),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            sched_pushes: self.sched_pushes.saturating_sub(earlier.sched_pushes),
            steal_attempts: self.steal_attempts.saturating_sub(earlier.steal_attempts),
            steal_batches: self.steal_batches.saturating_sub(earlier.steal_batches),
            worker_parks: self.worker_parks.saturating_sub(earlier.worker_parks),
            worker_wakes: self.worker_wakes.saturating_sub(earlier.worker_wakes),
            parcels_sent: self.parcels_sent.saturating_sub(earlier.parcels_sent),
            parcels_received: self.parcels_received.saturating_sub(earlier.parcels_received),
        }
    }

    /// Render as `(hpx-style path, value)` pairs.
    pub fn as_paths(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("/threads/count/cumulative", self.tasks_executed),
            ("/threads/count/spawned", self.tasks_spawned),
            ("/threads/count/panicked", self.tasks_panicked),
            ("/threads/count/stolen", self.tasks_stolen),
            ("/threads/count/pushes", self.sched_pushes),
            ("/threads/count/steal-attempts", self.steal_attempts),
            ("/threads/count/steal-batches", self.steal_batches),
            ("/threads/count/parks", self.worker_parks),
            ("/threads/count/wakes", self.worker_wakes),
            ("/lcos/count/continuations", self.continuations_run),
            ("/parcels/count/sent", self.parcels_sent),
            ("/parcels/count/received", self.parcels_received),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerPolicy;

    #[test]
    fn snapshot_reflects_counts() {
        let c = Counters::new(2);
        let (w0, w1, outside) = (c.lane(Some(0)), c.lane(Some(1)), c.lane(None));
        w0.tasks_spawned.fetch_add(2, Ordering::Relaxed);
        outside.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        w1.tasks_executed.fetch_add(3, Ordering::Relaxed);
        c.tasks_panicked.fetch_add(1, Ordering::Relaxed);
        c.parcels_sent.fetch_add(2, Ordering::Relaxed);
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        let snap = c.snapshot(&s);
        assert_eq!(snap.tasks_spawned, 3, "worker and outside lanes");
        assert_eq!(snap.sched_pushes, 3);
        assert_eq!(snap.tasks_executed, 2, "runs minus panics");
        assert_eq!(snap.parcels_sent, 2);
        assert_eq!(snap.tasks_stolen, 0);
    }

    #[test]
    fn paths_cover_all_counters() {
        let c = Counters::new(1);
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        let paths = c.snapshot(&s).as_paths();
        assert_eq!(paths.len(), 12);
        assert!(paths.iter().any(|(p, _)| *p == "/threads/count/cumulative"));
        assert!(paths.iter().any(|(p, _)| *p == "/threads/count/parks"));
        assert!(paths.iter().any(|(p, _)| *p == "/threads/count/steal-batches"));
    }

    #[test]
    fn snapshot_delta_is_fieldwise_and_saturating() {
        let c = Counters::new(1);
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        c.lane(None).tasks_spawned.fetch_add(5, Ordering::Relaxed);
        let before = c.snapshot(&s);
        let w0 = c.lane(Some(0));
        w0.tasks_spawned.fetch_add(7, Ordering::Relaxed);
        c.parcels_sent.fetch_add(2, Ordering::Relaxed);
        let after = c.snapshot(&s);
        let d = after.delta(&before);
        assert_eq!(d.tasks_spawned, 7);
        assert_eq!(d.parcels_sent, 2);
        assert_eq!(d.tasks_executed, 0);
        // reversed order saturates to zero instead of wrapping
        let rev = before.delta(&after);
        assert_eq!(rev.tasks_spawned, 0);
    }

    #[test]
    fn task_conservation_after_wait_idle() {
        // spawned == executed + panicked once the runtime is idle, even
        // with panicking tasks in the mix.
        let rt = crate::runtime::Runtime::builder().worker_threads(2).build();
        let before = rt.perf_snapshot();
        for i in 0..40 {
            rt.spawn(move || {
                if i % 10 == 0 {
                    panic!("intentional test panic");
                }
            });
        }
        rt.wait_idle();
        let d = rt.perf_snapshot().delta(&before);
        assert_eq!(d.tasks_spawned, 40);
        assert_eq!(d.tasks_panicked, 4);
        assert_eq!(
            d.tasks_spawned,
            d.tasks_executed + d.tasks_panicked,
            "conservation: {d:?}"
        );
        rt.shutdown();
    }

    #[test]
    fn registry_mirrors_flat_snapshot() {
        use crate::introspect::{CounterPath, Instance};
        let rt = crate::runtime::Runtime::builder().worker_threads(2).build();
        for _ in 0..25 {
            rt.spawn(|| {});
        }
        rt.wait_idle();
        let snap = rt.counter_snapshot();
        let flat = rt.perf_snapshot();
        let total =
            |name: &str| snap.get(&CounterPath::new("threads", 0, Instance::Total, name));
        assert_eq!(total("count/spawned"), Some(flat.tasks_spawned as u64));
        assert_eq!(total("count/cumulative"), Some(flat.tasks_executed as u64));
        // per-worker cumulative sums to the locality total
        let per_worker: u64 = (0..rt.workers())
            .map(|w| {
                snap.get(&CounterPath::new(
                    "threads",
                    0,
                    Instance::Worker(w),
                    "count/cumulative",
                ))
                .unwrap()
            })
            .sum();
        assert!(
            per_worker >= flat.tasks_executed as u64,
            "worker stats include panicked tasks too: {per_worker} vs {}",
            flat.tasks_executed
        );
        // 12 flat totals + 12 latency totals (4 channels × p50/p99/count)
        // + per worker: 2 thread stats and 2 task-latency quantiles
        assert_eq!(snap.len(), 24 + 4 * rt.workers());
        rt.shutdown();
    }

    #[test]
    fn latency_counters_populate_after_work() {
        use crate::introspect::{CounterPath, Instance};
        let rt = crate::runtime::Runtime::builder().worker_threads(2).build();
        for _ in 0..50 {
            rt.spawn(|| {
                std::hint::black_box((0..100).sum::<u64>());
            });
        }
        rt.wait_idle();
        let snap = rt.counter_snapshot();
        let count = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/count"))
            .unwrap();
        assert!(count >= 50, "every task records a latency sample: {count}");
        let p50 = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/p50"))
            .unwrap();
        let p99 = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/p99"))
            .unwrap();
        assert!(p50 > 0 && p99 >= p50, "quantiles ordered: p50={p50} p99={p99}");
        // Per-worker task quantiles exist for every worker.
        for w in 0..rt.workers() {
            assert!(snap
                .get(&CounterPath::new("latency", 0, Instance::Worker(w), "task/p99"))
                .is_some());
        }
        rt.shutdown();
    }
}
