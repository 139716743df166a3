//! Scheduler overhead A/B benchmark: the lock-free Chase-Lev scheduler
//! (current `parallex` runtime) against a faithful replica of the seed's
//! lock-based design (per-worker `Mutex<VecDeque>` deques, unconditional
//! notify on push, 1 ms-timeout polling park).
//!
//! The seed itself predates the vendored dependency shims and cannot be
//! built in this environment, so the baseline is reimplemented here from
//! the seed's `sched.rs` (same queue structure, same pop order, same
//! sleep protocol) for an honest same-binary, same-machine comparison.
//!
//! Workloads, each at 1/2/4/8 workers:
//!   * spawn-drain: one external thread pushes N trivial tasks, workers
//!     drain them (throughput).
//!   * ping-pong: a task chain hops between adjacent workers via
//!     `ScheduleHint::Worker` (per-hop handoff latency).
//!   * UTS-style tree: an unbalanced task tree where every node spawns
//!     its children locally, so all load balancing happens by stealing.
//!
//! Results are printed and written to `BENCH_sched.json` at the workspace
//! root (consumed by CI).

use crossbeam::queue::SegQueue;
use parallex::prelude::*;
use parallex::task::ScheduleHint;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// --------------------------------------------------------------------------
// Lock-based baseline: replica of the seed scheduler + a minimal pool.
// --------------------------------------------------------------------------

struct LockCtx {
    sched: Arc<LockSched>,
    worker: usize,
}

type Job = Box<dyn FnOnce(&LockCtx) + Send + 'static>;

struct LockSched {
    locals: Vec<Mutex<VecDeque<Job>>>,
    injector: SegQueue<Job>,
    lock: Mutex<()>,
    cond: Condvar,
    queued: AtomicUsize,
    outstanding: AtomicUsize,
    shutdown: AtomicBool,
}

impl LockSched {
    fn new(workers: usize) -> Arc<LockSched> {
        Arc::new(LockSched {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: SegQueue::new(),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Push from outside the pool (seed: hint `None`, `from_worker: None`).
    fn spawn_external(&self, job: Job) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::Release);
        self.injector.push(job);
        self.cond.notify_one(); // seed: unconditional wake on every push
    }

    /// Push onto worker `w`'s deque (seed: `Worker(w)` hint or local spawn).
    fn spawn_to(&self, w: usize, job: Job) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::Release);
        self.locals[w].lock().push_back(job);
        self.cond.notify_one();
    }

    fn pop(&self, w: usize) -> Option<Job> {
        // The local guard must drop before stealing locks other workers'
        // queues, or two thieves deadlock holding each other's lock.
        let local = self.locals[w].lock().pop_back();
        let got = local
            .or_else(|| self.injector.pop())
            .or_else(|| self.steal(w));
        if got.is_some() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
        }
        got
    }

    fn steal(&self, thief: usize) -> Option<Job> {
        let n = self.locals.len();
        for off in 1..n {
            let victim = (thief + off) % n;
            if let Some(job) = self.locals[victim].lock().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Seed sleep protocol: condvar with a 1 ms timeout so a lost wakeup
    /// can never hang a worker (and idle workers poll forever).
    fn wait_for_work(&self) {
        if self.queued.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut guard = self.lock.lock();
        if self.queued.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.cond.wait_for(&mut guard, Duration::from_millis(1));
    }
}

struct LockPool {
    sched: Arc<LockSched>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl LockPool {
    fn new(workers: usize) -> LockPool {
        let sched = LockSched::new(workers);
        let threads = (0..workers)
            .map(|w| {
                let sched = sched.clone();
                std::thread::spawn(move || {
                    let ctx = LockCtx { sched: sched.clone(), worker: w };
                    loop {
                        if let Some(job) = sched.pop(w) {
                            job(&ctx);
                            sched.outstanding.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                        if sched.shutdown.load(Ordering::Acquire)
                            && sched.queued.load(Ordering::Acquire) == 0
                        {
                            break;
                        }
                        sched.wait_for_work();
                    }
                })
            })
            .collect();
        LockPool { sched, threads }
    }

    fn wait_idle(&self) {
        while self.sched.outstanding.load(Ordering::SeqCst) != 0 {
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn shutdown(self) {
        self.sched.shutdown.store(true, Ordering::Release);
        let _guard = self.sched.lock.lock();
        self.sched.cond.notify_all();
        drop(_guard);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// --------------------------------------------------------------------------
// Workloads.
// --------------------------------------------------------------------------

const SPAWN_DRAIN_TASKS: usize = 20_000;
const PING_PONG_HOPS: usize = 1_000;
const UTS_DEPTH: u32 = 11;
/// Rows last milliseconds and the host's load drifts between them, so
/// samples are gathered in `ROUNDS` passes over every row, `REPS` timed
/// runs per row per pass: each row's median then spans the whole run
/// instead of one window of it. Every row also reports its min..max.
const ROUNDS: usize = 15;
const REPS: usize = 3;

/// Node count of the deterministic unbalanced tree: a node at depth `d`
/// spawns `2 + d % 2` children.
fn uts_expected(depth: u32) -> usize {
    if depth == 0 {
        1
    } else {
        1 + (2 + depth as usize % 2) * uts_expected(depth - 1)
    }
}

fn lock_uts(ctx: &LockCtx, depth: u32, count: &Arc<AtomicUsize>) {
    count.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    for _ in 0..(2 + depth as usize % 2) {
        let count = count.clone();
        ctx.sched.spawn_to(
            ctx.worker,
            Box::new(move |c| lock_uts(c, depth - 1, &count)),
        );
    }
}

fn rt_uts(rt: &Runtime, depth: u32, count: &Arc<AtomicUsize>) {
    count.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    for _ in 0..(2 + depth as usize % 2) {
        let rt2 = rt.clone();
        let count = count.clone();
        rt.spawn(move || rt_uts(&rt2, depth - 1, &count));
    }
}

fn lock_pingpong(ctx: &LockCtx, remaining: usize, workers: usize) {
    if remaining == 0 {
        return;
    }
    let target = (ctx.worker + 1) % workers;
    ctx.sched.spawn_to(
        target,
        Box::new(move |c| lock_pingpong(c, remaining - 1, workers)),
    );
}

fn rt_pingpong(rt: &Runtime, remaining: usize) {
    if remaining == 0 {
        return;
    }
    let target = (rt.current_worker().unwrap_or(0) + 1) % rt.workers();
    let rt2 = rt.clone();
    rt.spawn_hinted(ScheduleHint::Worker(target), move || {
        rt_pingpong(&rt2, remaining - 1)
    });
}

/// Median, fastest and slowest of a row's samples, in seconds.
struct Timing {
    median: f64,
    min: f64,
    max: f64,
}

impl Timing {
    fn of(samples: &[f64]) -> Timing {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Timing { median: v[v.len() / 2], min: v[0], max: v[v.len() - 1] }
    }
}

/// One warmup run of `f`, then `REPS` timed runs appended to `samples`.
fn time_reps<F: FnMut() -> Duration>(samples: &mut Vec<f64>, mut f: F) {
    let _ = f();
    samples.extend((0..REPS).map(|_| f().as_secs_f64()));
}

/// (utime + stime) of this process in clock ticks, from /proc/self/stat.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime/stime are fields 14 and 15 (1-based); split after the
    // parenthesised comm field, which may itself contain spaces.
    let after = stat.rsplit(')').next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

// --------------------------------------------------------------------------
// Harness.
// --------------------------------------------------------------------------

struct Record {
    workload: &'static str,
    engine: &'static str,
    workers: usize,
    items: usize,
    samples: Vec<f64>,
}

impl Record {
    fn t(&self) -> Timing {
        Timing::of(&self.samples)
    }

    fn per_sec(&self) -> f64 {
        self.items as f64 / self.t().median
    }
}

/// The samples of row (`workload`, `engine`, `workers`), created empty
/// on first use; rows keep their first-use order.
fn row<'a>(
    records: &'a mut Vec<Record>,
    workload: &'static str,
    engine: &'static str,
    workers: usize,
    items: usize,
) -> &'a mut Vec<f64> {
    let i = match records
        .iter()
        .position(|r| (r.workload, r.engine, r.workers) == (workload, engine, workers))
    {
        Some(i) => i,
        None => {
            records.push(Record { workload, engine, workers, items, samples: Vec::new() });
            records.len() - 1
        }
    };
    &mut records[i].samples
}

fn main() {
    let worker_counts = [1usize, 2, 4, 8];
    let mut records: Vec<Record> = Vec::new();
    let uts_nodes = uts_expected(UTS_DEPTH);
    // Cumulative scheduler counters of the last 4-worker runtime,
    // captured after its UTS run (the steal-heavy workload).
    let mut loaded_snap: Option<parallex::perf::Snapshot> = None;

    for _ in 0..ROUNDS {
        for &w in &worker_counts {
            // ---- lock-based baseline ----
            let pool = LockPool::new(w);
            time_reps(row(&mut records, "spawn_drain", "lock_based", w, SPAWN_DRAIN_TASKS), || {
                let t = Instant::now();
                for _ in 0..SPAWN_DRAIN_TASKS {
                    pool.sched.spawn_external(Box::new(|_| {}));
                }
                pool.wait_idle();
                t.elapsed()
            });
            time_reps(row(&mut records, "ping_pong", "lock_based", w, PING_PONG_HOPS), || {
                let t = Instant::now();
                pool.sched
                    .spawn_to(0, Box::new(move |c| lock_pingpong(c, PING_PONG_HOPS, w)));
                pool.wait_idle();
                t.elapsed()
            });
            time_reps(row(&mut records, "uts_tree", "lock_based", w, uts_nodes), || {
                let count = Arc::new(AtomicUsize::new(0));
                let c2 = count.clone();
                let t = Instant::now();
                pool.sched
                    .spawn_external(Box::new(move |c| lock_uts(c, UTS_DEPTH, &c2)));
                pool.wait_idle();
                let elapsed = t.elapsed();
                assert_eq!(count.load(Ordering::Relaxed), uts_nodes);
                elapsed
            });
            pool.shutdown();

            // ---- Chase-Lev runtime ----
            let rt = Runtime::builder().worker_threads(w).build();
            time_reps(row(&mut records, "spawn_drain", "chase_lev", w, SPAWN_DRAIN_TASKS), || {
                let t = Instant::now();
                for _ in 0..SPAWN_DRAIN_TASKS {
                    rt.spawn(|| {});
                }
                rt.wait_idle();
                t.elapsed()
            });
            time_reps(row(&mut records, "ping_pong", "chase_lev", w, PING_PONG_HOPS), || {
                let rt2 = rt.clone();
                let t = Instant::now();
                rt.spawn_hinted(ScheduleHint::Worker(0), move || {
                    rt_pingpong(&rt2, PING_PONG_HOPS)
                });
                rt.wait_idle();
                t.elapsed()
            });
            time_reps(row(&mut records, "uts_tree", "chase_lev", w, uts_nodes), || {
                let count = Arc::new(AtomicUsize::new(0));
                let c2 = count.clone();
                let rt2 = rt.clone();
                let t = Instant::now();
                rt.spawn(move || rt_uts(&rt2, UTS_DEPTH, &c2));
                rt.wait_idle();
                let elapsed = t.elapsed();
                assert_eq!(count.load(Ordering::Relaxed), uts_nodes);
                elapsed
            });
            if w == 4 {
                loaded_snap = Some(rt.perf_snapshot());
            }
            rt.shutdown();
        }
    }
    let snap = loaded_snap.expect("4-worker config always runs");

    // ---- idle CPU: 4 workers, no work for 500 ms ----
    let idle_window = Duration::from_millis(500);
    let rt = Runtime::builder().worker_threads(4).build();
    rt.wait_idle();
    std::thread::sleep(Duration::from_millis(50)); // let workers park
    let before = process_cpu_ticks();
    std::thread::sleep(idle_window);
    let after = process_cpu_ticks();
    let idle_ticks_chase_lev = match (before, after) {
        (Some(b), Some(a)) => Some(a - b),
        _ => None,
    };
    rt.shutdown();

    let pool = LockPool::new(4);
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_ticks();
    std::thread::sleep(idle_window);
    let after = process_cpu_ticks();
    let idle_ticks_lock = match (before, after) {
        (Some(b), Some(a)) => Some(a - b),
        _ => None,
    };
    pool.shutdown();

    // ---- report ----
    println!(
        "{:<12} {:<11} {:>3}w {:>10} items {:>12} {:>14} {:>21}",
        "workload", "engine", "", "", "median", "rate", "min..max"
    );
    for r in &records {
        println!(
            "{:<12} {:<11} {:>3}w {:>10} items {:>10.3} ms {:>11.0} /s {:>8.3}..{:.3} ms",
            r.workload,
            r.engine,
            r.workers,
            r.items,
            r.t().median * 1e3,
            r.per_sec(),
            r.t().min * 1e3,
            r.t().max * 1e3
        );
    }
    for &w in &worker_counts {
        let find = |engine: &str| {
            records
                .iter()
                .find(|r| r.workload == "spawn_drain" && r.engine == engine && r.workers == w)
                .unwrap()
        };
        println!(
            "spawn_drain speedup at {w} workers: {:.2}x (chase_lev vs lock_based)",
            find("chase_lev").per_sec() / find("lock_based").per_sec()
        );
    }
    println!(
        "idle 4-worker CPU over {:?}: chase_lev {:?} ticks, lock_based {:?} ticks",
        idle_window, idle_ticks_chase_lev, idle_ticks_lock
    );
    println!(
        "chase_lev 4-worker counters (cumulative through UTS): stolen={} steal_attempts={} steal_batches={} parks={} wakes={}",
        snap.tasks_stolen, snap.steal_attempts, snap.steal_batches, snap.worker_parks, snap.worker_wakes
    );

    // ---- BENCH_sched.json ----
    let mut json = format!(
        "{{\n  \"bench\": \"sched_overhead\",\n  \"samples_per_row\": {},\n  \"results\": [\n",
        ROUNDS * REPS
    );
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"workers\": {}, \"items\": {}, \"median_secs\": {:.6}, \"min_secs\": {:.6}, \"max_secs\": {:.6}, \"per_sec\": {:.1}}}{}\n",
            r.workload,
            r.engine,
            r.workers,
            r.items,
            r.t().median,
            r.t().min,
            r.t().max,
            r.per_sec(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"idle_4worker_cpu_ticks\": {{\"window_ms\": {}, \"chase_lev\": {}, \"lock_based\": {}}},\n",
        idle_window.as_millis(),
        idle_ticks_chase_lev.map_or("null".into(), |v| v.to_string()),
        idle_ticks_lock.map_or("null".into(), |v| v.to_string())
    ));
    json.push_str(&format!(
        "  \"chase_lev_4worker_counters\": {{\"stolen\": {}, \"steal_attempts\": {}, \"steal_batches\": {}, \"parks\": {}, \"wakes\": {}}}\n}}\n",
        snap.tasks_stolen, snap.steal_attempts, snap.steal_batches, snap.worker_parks, snap.worker_wakes
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(out, &json).expect("write BENCH_sched.json");
    println!("wrote {out}");
}
