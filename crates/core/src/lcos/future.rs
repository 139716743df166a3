//! Promises and futures with HPX semantics.
//!
//! These are *eager, continuation-based* futures (like `hpx::future`, not
//! like Rust's polling `std::future::Future`): the producer side runs
//! regardless of whether anyone waits, and attaching a continuation with
//! [`Future::then`] schedules a new lightweight task when the value
//! arrives. `get` from a worker thread help-executes other tasks while
//! waiting, so blocking on a future never idles a core.
//!
//! Callbacks that run user code — `then`, `share`, the `dataflow`
//! joins and the resilience combinators — are spawned as high-priority
//! tasks on a runtime future, and only those count toward
//! `/lcos/count/continuations`. The gather callbacks of [`when_all`] and
//! [`when_any`] store one result and at most fulfil their own promise, so
//! they run inline on the completing thread once its state lock is
//! dropped, as HPX's `when_all` completes through `set_on_completed`:
//! a child future costs one task, not two. Detached promises run every
//! callback inline.

use crate::error::{Error, Result};
use crate::runtime::{help_or_park_until, Core};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;

type Callback<T> = Box<dyn FnOnce(Result<T>) + Send + 'static>;

/// How a registered callback runs once the result arrives.
#[derive(Clone, Copy)]
enum Dispatch {
    /// As a new high-priority task when the future has a runtime.
    Spawn,
    /// On the completing thread, after the state lock is dropped.
    Inline,
}

enum State<T> {
    /// Not yet completed; at most one continuation may be registered.
    /// `waiters` are non-worker threads parked in [`Future::wait`].
    Pending { cb: Option<(Callback<T>, Dispatch)>, waiters: Vec<Thread> },
    /// Completed, value not yet consumed.
    Ready(Result<T>),
    /// Value handed to `get` or a continuation.
    Consumed,
}

pub(crate) struct Shared<T> {
    state: Mutex<State<T>>,
    /// Set once the result (or error) has been produced: lock-free
    /// `is_ready` fast path.
    completed: AtomicBool,
    /// Runtime to schedule continuations on and to help-execute while
    /// waiting; `None` for detached promises (continuations run inline on
    /// the completing thread).
    core: Option<Arc<Core>>,
}

impl<T: Send + 'static> Shared<T> {
    fn complete(self: &Arc<Self>, res: Result<T>) {
        let mut st = self.state.lock();
        let State::Pending { cb, waiters } = &mut *st else {
            // Already completed (e.g. a when_any race lost): drop `res`.
            return;
        };
        let waiters = std::mem::take(waiters);
        let continuation = match cb.take() {
            Some(cb) => {
                *st = State::Consumed;
                Some((cb, res))
            }
            None => {
                *st = State::Ready(res);
                None
            }
        };
        drop(st);
        self.completed.store(true, Ordering::Release);
        for t in waiters {
            t.unpark();
        }
        if let Some(((cb, how), res)) = continuation {
            self.run_continuation(cb, how, res);
        }
    }

    /// Register the calling thread to be unparked on completion; false
    /// if the result is already being set.
    fn add_waiter(&self) -> bool {
        match &mut *self.state.lock() {
            State::Pending { waiters, .. } => {
                waiters.push(std::thread::current());
                true
            }
            _ => false,
        }
    }

    fn run_continuation(self: &Arc<Self>, cb: Callback<T>, how: Dispatch, res: Result<T>) {
        match (how, &self.core) {
            (Dispatch::Spawn, Some(core)) => {
                core.counters.continuations_run.fetch_add(1, Ordering::Relaxed);
                // Continuations go through the scheduler like any task, at
                // high priority to keep dependency chains moving.
                let task = crate::task::Task::new(move || cb(res))
                    .with_priority(crate::task::Priority::High);
                core.spawn(task);
            }
            _ => cb(res),
        }
    }
}

/// The write side of a future (HPX `hpx::promise`).
pub struct Promise<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
    future_taken: bool,
}

impl<T: Send + 'static> Promise<T> {
    /// A detached promise: continuations run inline on the completing
    /// thread and waiting threads cannot help-execute.
    pub fn new() -> Promise<T> {
        Promise::make(None)
    }

    pub(crate) fn with_core(core: Arc<Core>) -> Promise<T> {
        Promise::make(Some(core))
    }

    fn make(core: Option<Arc<Core>>) -> Promise<T> {
        Promise {
            shared: Arc::new(Shared {
                state: Mutex::new(State::Pending { cb: None, waiters: Vec::new() }),
                completed: AtomicBool::new(false),
                core,
            }),
            fulfilled: false,
            future_taken: false,
        }
    }

    /// Obtain the read side. May be called once.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn future(&mut self) -> Future<T> {
        assert!(!self.future_taken, "future() already taken from this promise");
        self.future_taken = true;
        Future { shared: self.shared.clone() }
    }

    /// Fulfil with a value, waking/scheduling any continuation.
    pub fn set_value(mut self, v: T) {
        self.fulfilled = true;
        self.shared.complete(Ok(v));
    }

    /// Fulfil with an error.
    pub fn set_error(mut self, e: Error) {
        self.fulfilled = true;
        self.shared.complete(Err(e));
    }

}

impl<T: Send + 'static> Default for Promise<T> {
    fn default() -> Self {
        Promise::new()
    }
}

impl<T: Send + 'static> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.shared.complete(Err(Error::BrokenPromise));
        }
    }
}

/// The read side (HPX `hpx::future`): single-consumer — `get` or `then`
/// consumes it.
pub struct Future<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Future<T> {
    /// A future that is already ready (detached; see
    /// [`crate::runtime::Runtime::make_ready_future`] for the
    /// runtime-attached variant).
    pub fn ready(v: T) -> Future<T> {
        let mut p = Promise::new();
        let f = p.future();
        p.set_value(v);
        f
    }

    /// Whether the result has been produced.
    pub fn is_ready(&self) -> bool {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Block until ready: help-executing if called from a worker,
    /// parked until the completing thread unparks it otherwise.
    pub fn wait(&self) {
        let shared = &self.shared;
        help_or_park_until(
            shared.core.as_ref(),
            || shared.completed.load(Ordering::Acquire),
            &|| shared.add_waiter(),
        );
    }

    /// Wait and take the value.
    ///
    /// # Panics
    /// Panics if the producing task failed ([`Error::TaskPanicked`]) or the
    /// promise was dropped. Use [`Future::try_get`] to handle errors.
    pub fn get(self) -> T {
        match self.try_get() {
            Ok(v) => v,
            Err(e) => panic!("future::get failed: {e}"),
        }
    }

    /// Wait and take the result.
    pub fn try_get(self) -> Result<T> {
        self.wait();
        let mut st = self.shared.state.lock();
        match std::mem::replace(&mut *st, State::Consumed) {
            State::Ready(res) => res,
            State::Consumed => panic!("future value already consumed"),
            State::Pending { .. } => unreachable!("wait() returned before completion"),
        }
    }

    /// Register `cb` to run with the result as soon as it is available
    /// (internal primitive behind `then`, `share` and `dataflow`): as a
    /// spawned task on a runtime future. If the future is already ready
    /// the callback runs immediately on this thread.
    pub(crate) fn on_complete(self, cb: impl FnOnce(Result<T>) + Send + 'static) {
        self.register(cb, Dispatch::Spawn);
    }

    /// Like [`Future::on_complete`], but `cb` runs on the completing
    /// thread instead of as a task. Only for callbacks that run no user
    /// code and take no lock a waiter may hold (`when_all`/`when_any`).
    pub(crate) fn on_complete_inline(self, cb: impl FnOnce(Result<T>) + Send + 'static) {
        self.register(cb, Dispatch::Inline);
    }

    fn register(self, cb: impl FnOnce(Result<T>) + Send + 'static, how: Dispatch) {
        let mut cb = Some(cb);
        let run_now = {
            let mut st = self.shared.state.lock();
            match std::mem::replace(&mut *st, State::Consumed) {
                State::Ready(res) => Some(res),
                State::Consumed => panic!("future value already consumed"),
                State::Pending { cb: existing, waiters } => {
                    assert!(existing.is_none(), "only one continuation per future");
                    *st = State::Pending {
                        cb: Some((Box::new(cb.take().expect("cb present")), how)),
                        waiters,
                    };
                    None
                }
            }
        };
        if let Some(res) = run_now {
            (cb.take().expect("cb not stored"))(res);
        }
    }

    /// Attach a continuation: returns a future of `f(value)`. The
    /// continuation is scheduled as a high-priority task when this future
    /// was produced by a runtime, and runs inline otherwise. Errors
    /// propagate without running `f`.
    pub fn then<U: Send + 'static>(
        self,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> Future<U> {
        let mut p = match &self.shared.core {
            Some(core) => Promise::with_core(core.clone()),
            None => Promise::new(),
        };
        let out = p.future();
        self.on_complete(move |res| match res {
            Ok(v) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v))) {
                    Ok(u) => p.set_value(u),
                    Err(pl) => {
                        p.set_error(Error::TaskPanicked(crate::util::panic_message(&*pl)))
                    }
                }
            }
            Err(e) => p.set_error(e),
        });
        out
    }

    pub(crate) fn core(&self) -> Option<Arc<Core>> {
        self.shared.core.clone()
    }
}

/// A multi-consumer future (HPX `hpx::shared_future`): cloneable, any
/// number of continuations, `get` returns a clone of the value. Created
/// with [`Future::share`].
///
/// ```
/// use parallex::prelude::*;
///
/// let rt = Runtime::builder().worker_threads(2).build();
/// let sf = rt.async_task(|| 21).share();
/// let doubled = sf.then(|x| x * 2);
/// assert_eq!(sf.get(), 21);      // repeatable
/// assert_eq!(sf.get(), 21);
/// assert_eq!(doubled.get(), 42);
/// rt.shutdown();
/// ```
pub struct SharedFuture<T: Clone + Send + 'static> {
    inner: Arc<SharedInner<T>>,
}

impl<T: Clone + Send + 'static> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture { inner: self.inner.clone() }
    }
}

type SharedCallback<T> = Box<dyn FnOnce(Result<T>) + Send + 'static>;

enum SharedState<T> {
    /// Continuations to run, and non-worker threads parked in `wait`.
    Pending { cbs: Vec<SharedCallback<T>>, waiters: Vec<Thread> },
    Ready(Result<T>),
}

struct SharedInner<T: Clone + Send + 'static> {
    state: Mutex<SharedState<T>>,
    completed: AtomicBool,
    core: Option<Arc<Core>>,
}

impl<T: Clone + Send + 'static> SharedInner<T> {
    fn result(&self) -> Result<T> {
        match &*self.state.lock() {
            SharedState::Ready(r) => r.clone(),
            SharedState::Pending { .. } => unreachable!("checked completed first"),
        }
    }
}

impl<T: Clone + Send + 'static> Future<T> {
    /// Convert into a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T> {
        let inner = Arc::new(SharedInner {
            state: Mutex::new(SharedState::Pending { cbs: Vec::new(), waiters: Vec::new() }),
            completed: AtomicBool::new(false),
            core: self.core(),
        });
        let inner2 = inner.clone();
        self.on_complete(move |res| {
            let (callbacks, waiters) = {
                let mut st = inner2.state.lock();
                let taken = match &mut *st {
                    SharedState::Pending { cbs, waiters } => {
                        (std::mem::take(cbs), std::mem::take(waiters))
                    }
                    SharedState::Ready(_) => (Vec::new(), Vec::new()),
                };
                *st = SharedState::Ready(res.clone());
                inner2.completed.store(true, Ordering::Release);
                taken
            };
            for t in waiters {
                t.unpark();
            }
            for cb in callbacks {
                cb(res.clone());
            }
        });
        SharedFuture { inner }
    }
}

impl<T: Clone + Send + 'static> SharedFuture<T> {
    /// Whether the result has been produced.
    pub fn is_ready(&self) -> bool {
        self.inner.completed.load(Ordering::Acquire)
    }

    /// Block until ready: help-executing from workers, parked until
    /// completion unparks it on other threads.
    pub fn wait(&self) {
        let inner = &self.inner;
        help_or_park_until(
            inner.core.as_ref(),
            || inner.completed.load(Ordering::Acquire),
            &|| match &mut *inner.state.lock() {
                SharedState::Pending { waiters, .. } => {
                    waiters.push(std::thread::current());
                    true
                }
                SharedState::Ready(_) => false,
            },
        );
    }

    /// Wait and clone the value out; unlike [`Future::get`] this can be
    /// called from any number of clones.
    ///
    /// # Panics
    /// Panics if the producer failed; use [`SharedFuture::try_get`].
    pub fn get(&self) -> T {
        match self.try_get() {
            Ok(v) => v,
            Err(e) => panic!("shared_future::get failed: {e}"),
        }
    }

    /// Wait and clone the result out.
    pub fn try_get(&self) -> Result<T> {
        self.wait();
        self.inner.result()
    }

    /// Attach a continuation; unlike [`Future::then`], any number may be
    /// attached (each receives a clone).
    pub fn then<U: Send + 'static>(
        &self,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> Future<U> {
        let mut p = match &self.inner.core {
            Some(core) => Promise::with_core(core.clone()),
            None => Promise::new(),
        };
        let out = p.future();
        let run = move |res: Result<T>| match res {
            Ok(v) => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v))) {
                Ok(u) => p.set_value(u),
                Err(pl) => p.set_error(Error::TaskPanicked(crate::util::panic_message(&*pl))),
            },
            Err(e) => p.set_error(e),
        };
        let mut run = Some(run);
        let immediate = {
            let mut st = self.inner.state.lock();
            match &mut *st {
                SharedState::Pending { cbs, .. } => {
                    cbs.push(Box::new(run.take().expect("run present")));
                    None
                }
                SharedState::Ready(r) => Some(r.clone()),
            }
        };
        if let Some(res) = immediate {
            (run.take().expect("run not stored"))(res);
        }
        out
    }
}

/// Future of all results: resolves when every input future has resolved,
/// preserving order. The first error (if any) wins.
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    let n = futures.len();
    let core = futures.iter().find_map(|f| f.core());
    let mut p = match core {
        Some(core) => Promise::with_core(core),
        None => Promise::new(),
    };
    let out = p.future();
    if n == 0 {
        p.set_value(Vec::new());
        return out;
    }
    struct Gather<T: Send + 'static> {
        slots: Mutex<Vec<Option<Result<T>>>>,
        promise: Mutex<Option<Promise<Vec<T>>>>,
        remaining: std::sync::atomic::AtomicUsize,
    }
    let gather = Arc::new(Gather {
        slots: Mutex::new((0..n).map(|_| None).collect()),
        promise: Mutex::new(Some(p)),
        remaining: std::sync::atomic::AtomicUsize::new(n),
    });
    for (i, f) in futures.into_iter().enumerate() {
        let g = gather.clone();
        f.on_complete_inline(move |res| {
            g.slots.lock()[i] = Some(res);
            if g.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let slots = std::mem::take(&mut *g.slots.lock());
                let mut vals = Vec::with_capacity(slots.len());
                let mut first_err = None;
                for s in slots {
                    match s.expect("slot must be filled") {
                        Ok(v) => vals.push(v),
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                let p = g.promise.lock().take().expect("completed once");
                match first_err {
                    None => p.set_value(vals),
                    Some(e) => p.set_error(e),
                }
            }
        });
    }
    out
}

/// Future of the first result: resolves with `(index, value)` of whichever
/// input resolves first (errors only win if every input fails).
pub fn when_any<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<(usize, T)> {
    assert!(!futures.is_empty(), "when_any of zero futures");
    let n = futures.len();
    let core = futures.iter().find_map(|f| f.core());
    let mut p = match core {
        Some(core) => Promise::with_core(core),
        None => Promise::new(),
    };
    let out = p.future();
    struct Race<T: Send + 'static> {
        promise: Mutex<Option<Promise<(usize, T)>>>,
        failures: std::sync::atomic::AtomicUsize,
        total: usize,
    }
    let race = Arc::new(Race {
        promise: Mutex::new(Some(p)),
        failures: std::sync::atomic::AtomicUsize::new(0),
        total: n,
    });
    for (i, f) in futures.into_iter().enumerate() {
        let r = race.clone();
        // The promise is taken out before it is fulfilled, so a racing
        // input never waits on this lock while a completion runs.
        f.on_complete_inline(move |res| match res {
            Ok(v) => {
                let winner = r.promise.lock().take();
                if let Some(p) = winner {
                    p.set_value((i, v));
                }
            }
            Err(e) => {
                if r.failures.fetch_add(1, Ordering::AcqRel) + 1 == r.total {
                    let last = r.promise.lock().take();
                    if let Some(p) = last {
                        p.set_error(e);
                    }
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn promise_future_roundtrip() {
        let mut p = Promise::new();
        let f = p.future();
        assert!(!f.is_ready());
        p.set_value(5);
        assert!(f.is_ready());
        assert_eq!(f.get(), 5);
    }

    #[test]
    fn ready_future() {
        let f = Future::ready("hi");
        assert!(f.is_ready());
        assert_eq!(f.get(), "hi");
    }

    #[test]
    fn dropped_promise_breaks_future() {
        let mut p: Promise<i32> = Promise::new();
        let f = p.future();
        drop(p);
        assert_eq!(f.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_future_panics() {
        let mut p: Promise<i32> = Promise::new();
        let _a = p.future();
        let _b = p.future();
    }

    #[test]
    fn then_runs_inline_for_detached_promise() {
        let mut p = Promise::new();
        let f = p.future().then(|x: i32| x + 1).then(|x| x * 2);
        p.set_value(10);
        assert_eq!(f.get(), 22);
    }

    #[test]
    fn then_propagates_errors_without_running() {
        let mut p: Promise<i32> = Promise::new();
        let f = p.future().then(|_| panic!("must not run"));
        p.set_error(Error::BrokenPromise);
        assert_eq!(f.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    fn then_captures_panics() {
        let mut p = Promise::new();
        let f = p.future().then(|_: i32| -> i32 { panic!("inner") });
        p.set_value(1);
        match f.try_get() {
            Err(Error::TaskPanicked(m)) => assert!(m.contains("inner")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn when_all_collects_in_order() {
        let mut ps: Vec<Promise<i32>> = (0..3).map(|_| Promise::new()).collect();
        let fs = ps.iter_mut().map(|p| p.future()).collect();
        let all = when_all(fs);
        // Complete out of order.
        ps.pop().unwrap().set_value(2);
        ps.remove(0).set_value(0);
        ps.pop().unwrap().set_value(1);
        assert_eq!(all.get(), vec![0, 1, 2]);
    }

    #[test]
    fn when_all_empty_is_ready() {
        let all: Future<Vec<i32>> = when_all(vec![]);
        assert_eq!(all.get(), Vec::<i32>::new());
    }

    #[test]
    fn when_all_surfaces_first_error() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let all = when_all(vec![a.future(), b.future()]);
        a.set_value(1);
        b.set_error(Error::BrokenPromise);
        assert_eq!(all.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    fn when_any_returns_first() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let any = when_any(vec![a.future(), b.future()]);
        b.set_value(9);
        let (idx, v) = any.get();
        assert_eq!((idx, v), (1, 9));
        a.set_value(1); // late completion is ignored
    }

    #[test]
    fn when_any_errors_only_if_all_fail() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let any = when_any(vec![a.future(), b.future()]);
        a.set_error(Error::BrokenPromise);
        b.set_value(3);
        assert_eq!(any.get(), (1, 3));
    }

    #[test]
    fn shared_future_fans_out_to_many_consumers() {
        let mut p = Promise::new();
        let sf = p.future().share();
        let a = sf.clone();
        let b = sf.clone();
        let doubled = sf.then(|x: i32| x * 2);
        let tripled = sf.then(|x: i32| x * 3);
        assert!(!sf.is_ready());
        p.set_value(7);
        assert_eq!(a.get(), 7);
        assert_eq!(b.get(), 7);
        assert_eq!(sf.get(), 7, "get is repeatable");
        assert_eq!(doubled.get(), 14);
        assert_eq!(tripled.get(), 21);
    }

    #[test]
    fn shared_future_then_after_ready_runs_immediately() {
        let sf = Future::ready(5).share();
        assert!(sf.is_ready());
        assert_eq!(sf.then(|x| x + 1).get(), 6);
    }

    #[test]
    fn shared_future_propagates_errors_to_all() {
        let mut p: Promise<i32> = Promise::new();
        let sf = p.future().share();
        let c1 = sf.clone();
        let t = sf.then(|_| unreachable!("must not run"));
        p.set_error(Error::BrokenPromise);
        assert_eq!(c1.try_get(), Err(Error::BrokenPromise));
        assert_eq!(sf.try_get(), Err(Error::BrokenPromise));
        assert!(t.try_get().is_err());
    }

    #[test]
    fn shared_future_across_runtime_tasks() {
        let rt = Runtime::builder().worker_threads(4).build();
        let sf = rt.async_task(|| 10u64).share();
        let fs: Vec<_> = (0..16)
            .map(|i| {
                let sf = sf.clone();
                rt.async_task(move || sf.get() + i)
            })
            .collect();
        let sum: u64 = when_all(fs).get().into_iter().sum();
        assert_eq!(sum, 16 * 10 + (0..16).sum::<u64>());
        rt.shutdown();
    }

    #[test]
    fn runtime_futures_schedule_continuations() {
        let rt = Runtime::builder().worker_threads(2).build();
        let f = rt.async_task(|| 20).then(|x| x + 1).then(|x| x * 2);
        assert_eq!(f.get(), 42);
        rt.shutdown();
    }

    #[test]
    fn when_all_gathers_inline_one_task_per_input() {
        // Each input costs its own task and nothing more: the gather
        // callbacks run on the completing thread, not as continuations.
        const N: usize = 16;
        let rt = Runtime::builder().worker_threads(2).build();
        let before = rt.perf_snapshot();
        let fs: Vec<_> = (0..N).map(|i| rt.async_task(move || i)).collect();
        assert_eq!(when_all(fs).get(), (0..N).collect::<Vec<_>>());
        let any = when_any((0..N).map(|i| rt.async_task(move || i)).collect());
        assert!(any.get().0 < N);
        rt.wait_idle();
        let d = rt.perf_snapshot().delta(&before);
        assert_eq!(d.tasks_spawned, 2 * N, "one task per input: {d:?}");
        assert_eq!(
            d.continuations_run, 0,
            "gathers spawn no continuation: {d:?}"
        );
        rt.shutdown();
    }

    #[test]
    fn then_still_spawns_one_continuation_task() {
        let rt = Runtime::builder().worker_threads(2).build();
        let mut p = rt.make_promise::<i32>();
        let f = p.future().then(|x| x + 1);
        let before = rt.perf_snapshot();
        p.set_value(41);
        assert_eq!(f.get(), 42);
        rt.wait_idle();
        let d = rt.perf_snapshot().delta(&before);
        assert_eq!((d.tasks_spawned, d.continuations_run), (1, 1), "{d:?}");
        rt.shutdown();
    }

    #[test]
    fn when_all_completed_from_a_plain_thread_resolves_in_order() {
        // The last input is a detached promise set from a thread outside
        // the pool, so the inline gather — and the spawn of the `then`
        // behind it — run there.
        let rt = Runtime::builder().worker_threads(2).build();
        let mut last: Promise<usize> = Promise::new();
        let fs = vec![rt.async_task(|| 0), last.future(), rt.async_task(|| 2)];
        let all = when_all(fs).then(|v| v.into_iter().map(|x| x * 10).collect::<Vec<_>>());
        rt.wait_idle();
        assert!(!all.is_ready());
        std::thread::spawn(move || last.set_value(1))
            .join()
            .unwrap();
        assert_eq!(all.get(), vec![0, 10, 20]);
        rt.shutdown();
    }

    #[test]
    fn completion_on_a_plain_thread_unparks_a_waiting_thread() {
        // A setter thread spins for a varying time before completing, so
        // completion lands before, during and after the waiter's
        // registration. A lost unpark leaves the waiter parked forever,
        // which the watchdog turns into a failure.
        let rt = Runtime::builder().worker_threads(1).build();
        let (to_setter, work) = std::sync::mpsc::channel::<(Promise<u32>, u32)>();
        let setter = std::thread::spawn(move || {
            for (p, spins) in work {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                p.set_value(spins);
            }
        });
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let rt2 = rt.clone();
        let waiter = std::thread::spawn(move || {
            for round in 0..2000u32 {
                let spins = (round * 37) % 4000;
                // Detached and runtime-attached, plain and shared.
                let mut p = if round % 2 == 0 { Promise::new() } else { rt2.make_promise() };
                let f = p.future();
                to_setter.send((p, spins)).unwrap();
                if round % 4 < 2 {
                    assert_eq!(f.get(), spins);
                } else {
                    assert_eq!(f.share().get(), spins);
                }
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a waiter stayed parked after its future completed");
        waiter.join().unwrap();
        setter.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn when_all_across_runtime_tasks() {
        let rt = Runtime::builder().worker_threads(4).build();
        let fs: Vec<_> = (0..32).map(|i| rt.async_task(move || i)).collect();
        let sum: i32 = when_all(fs).get().into_iter().sum();
        assert_eq!(sum, (0..32).sum());
        rt.shutdown();
    }
}
