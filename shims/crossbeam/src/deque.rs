//! Chase-Lev work-stealing deque with batch stealing.
//!
//! The implementation follows Lê, Pop, Cohen & Zappa Nardelli, *"Correct
//! and Efficient Work-Stealing for Weak Memory Models"* (PPoPP'13): the
//! owner pushes and pops at the *bottom* (LIFO), thieves `compare_exchange`
//! the *top* (FIFO), a `SeqCst` fence orders the owner's bottom
//! decrement against the thief's top read, and the race for the last
//! element is resolved by a CAS on `top` from both sides.
//!
//! Differences from `crossbeam-deque` worth knowing about:
//!
//! * **Buffer reclamation is deferred to drop.** Upstream frees grown-out
//!   buffers through epoch GC; here the owner retires old buffers into a
//!   list freed when the last handle goes away. A deque that grows to N
//!   elements retires at most 2N slots of garbage (geometric series), so
//!   memory stays bounded by live usage.
//! * Only the LIFO worker flavor is provided (`Worker::new_lifo`), which
//!   is what a task scheduler wants: the task most recently made runnable
//!   has the warmest cache footprint.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Arc;

/// How many tasks one `steal_batch_and_pop` may move (upstream uses 32).
const MAX_BATCH: isize = 32;

/// The result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was observed empty.
    Empty,
    /// One element was stolen (for batch steals: the first of the batch,
    /// the rest having been pushed into the destination worker).
    Success(T),
    /// A concurrent operation interfered; the caller may retry.
    Retry,
}

impl<T> Steal<T> {
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    pub fn is_success(&self) -> bool {
        matches!(self, Steal::Success(_))
    }

    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }

    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

/// A growable ring buffer of `T` slots. Slots are raw (`MaybeUninit`);
/// liveness is tracked by the deque's `top`/`bottom` indices.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Power-of-two capacity; index masking instead of modulo.
    mask: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer { slots, mask: cap - 1 }))
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Raw slot pointer for logical index `i`.
    fn at(&self, i: isize) -> *mut MaybeUninit<T> {
        self.slots[(i as usize) & self.mask].get()
    }

    unsafe fn write(&self, i: isize, v: T) {
        (*self.at(i)).write(v);
    }

    unsafe fn read(&self, i: isize) -> T {
        self.at(i).read().assume_init()
    }
}

struct Inner<T> {
    /// Thieves' end. Monotonically increasing.
    top: AtomicIsize,
    /// Owner's end.
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by `grow`, freed on drop (owner-only access).
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: the last Worker/Stealer handle is gone.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        unsafe {
            for i in t..b {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
            for old in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// The owner handle: single-threaded LIFO push/pop at the bottom end.
///
/// `Worker` is `Send` (it can be moved to the worker thread) but not
/// `Sync` and not `Clone`: exactly one thread may use it at a time, which
/// is what makes the owner path lock-free without CAS on push.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// `!Sync` marker: owner operations are single-threaded by contract.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

unsafe impl<T: Send> Send for Worker<T> {}

impl<T> Worker<T> {
    /// Create a LIFO worker (owner pops its most recent push first;
    /// thieves steal the oldest element).
    pub fn new_lifo() -> Worker<T> {
        let inner = Arc::new(Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(64)),
            retired: UnsafeCell::new(Vec::new()),
        });
        Worker { inner, _not_sync: PhantomData }
    }

    /// A thief handle to this deque. Cheap; any number may exist.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: self.inner.clone() }
    }

    /// Number of elements currently in the deque (racy snapshot).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the buffer with one of twice the capacity, copying the live
    /// range. Owner-only. The old buffer is retired, not freed: thieves
    /// may still be reading it.
    #[cold]
    fn grow(&self, t: isize, b: isize) -> *mut Buffer<T> {
        let old = self.inner.buffer.load(Ordering::Relaxed);
        unsafe {
            let new = Buffer::alloc((*old).cap() * 2);
            for i in t..b {
                std::ptr::copy_nonoverlapping((*old).at(i), (*new).at(i), 1);
            }
            (*self.inner.retired.get()).push(old);
            self.inner.buffer.store(new, Ordering::Release);
            new
        }
    }

    /// Push onto the bottom end. Lock-free, no CAS.
    pub fn push(&self, value: T) {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        let mut buf = self.inner.buffer.load(Ordering::Relaxed);
        unsafe {
            if b - t > (*buf).cap() as isize - 1 {
                buf = self.grow(t, b);
            }
            (*buf).write(b, value);
        }
        fence(Ordering::Release);
        self.inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pop from the bottom end (the most recent push). Lock-free; a CAS
    /// happens only in the one-element race against thieves.
    pub fn pop(&self) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.inner.buffer.load(Ordering::Relaxed);
        self.inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.inner.top.load(Ordering::Relaxed);
        if t <= b {
            let value = unsafe { (*buf).read(b) };
            if t == b {
                // Last element: race thieves for it via top.
                if self
                    .inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief got it; the value we read is theirs.
                    std::mem::forget(value);
                    self.inner.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                self.inner.bottom.store(b + 1, Ordering::Relaxed);
            }
            Some(value)
        } else {
            // Deque was empty; restore bottom.
            self.inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("len", &self.len()).finish()
    }
}

/// A thief handle: lock-free FIFO steals from the top end.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

unsafe impl<T: Send> Send for Stealer<T> {}
unsafe impl<T: Send> Sync for Stealer<T> {}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: self.inner.clone() }
    }
}

impl<T> Stealer<T> {
    /// Number of elements currently in the deque (racy snapshot).
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steal the oldest element.
    pub fn steal(&self) -> Steal<T> {
        let t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.inner.buffer.load(Ordering::Acquire);
        let value = unsafe { (*buf).read(t) };
        if self
            .inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Lost the race: the value belongs to whoever advanced top.
            std::mem::forget(value);
            return Steal::Retry;
        }
        Steal::Success(value)
    }

    /// Steal up to half the victim's elements (capped at a small batch
    /// size), push all but the first into `dest`, and return the first.
    ///
    /// Elements are claimed one `compare_exchange` on `top` at a time,
    /// aborting the batch at the first interference. A single bulk CAS
    /// over a speculatively-read range would be unsound: the owner
    /// removes non-last elements by moving `bottom` alone (it only
    /// touches `top` for the final element), so a bulk CAS on `top` can
    /// succeed even after the owner popped — or pushed over — slots the
    /// thief already read, running the same task twice and leaving
    /// `top > bottom`. Upstream crossbeam-deque steals LIFO batches
    /// element-wise for the same reason; the batch still amortizes the
    /// victim-selection walk and fence traffic over many tasks.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let mut t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        let n = b - t;
        if n <= 0 {
            return Steal::Empty;
        }
        let take = ((n + 1) / 2).min(MAX_BATCH);
        let buf = self.inner.buffer.load(Ordering::Acquire);
        let first = unsafe { (*buf).read(t) };
        if self
            .inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Lost the race: the value belongs to whoever advanced top.
            std::mem::forget(first);
            return Steal::Retry;
        }
        t += 1;
        for _ in 1..take {
            // Re-validate against `bottom` (the owner may have popped
            // down into the planned range) and reload the buffer (the
            // owner may have grown it) before each claim.
            fence(Ordering::SeqCst);
            let b = self.inner.bottom.load(Ordering::Acquire);
            if t >= b {
                break;
            }
            let buf = self.inner.buffer.load(Ordering::Acquire);
            let v = unsafe { (*buf).read(t) };
            if self
                .inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::mem::forget(v);
                break;
            }
            dest.push(v);
            t += 1;
        }
        Steal::Success(first)
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer").field("len", &self.len()).finish()
    }
}

/// An injector queue: an MPMC FIFO for work arriving from outside the
/// worker pool, drained in batches into a worker's deque.
///
/// Upstream's `Injector` is a lock-free segmented queue; safe reclamation
/// there rides on epoch GC. This stand-in is a spinlock around a
/// `VecDeque` — the scheduler only touches it for external spawns and
/// drains it in batches, so one brief lock acquisition amortizes over up
/// to [`MAX_BATCH`] tasks.
pub struct Injector<T> {
    queue: crate::queue::SegQueue<T>,
}

impl<T> Injector<T> {
    pub fn new() -> Injector<T> {
        Injector { queue: crate::queue::SegQueue::new() }
    }

    pub fn push(&self, value: T) {
        self.queue.push(value);
    }

    /// Push every element of `values`, in order, under one lock (a
    /// shim-only extension; upstream has no batch push).
    pub fn push_batch(&self, values: impl IntoIterator<Item = T>) {
        self.queue.push_batch(values);
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Take the oldest element.
    pub fn steal(&self) -> Steal<T> {
        match self.queue.pop() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }

    /// Take up to half the queue (capped), push all but the first into
    /// `dest`, return the first.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let batch = self.queue.pop_batch(MAX_BATCH as usize);
        let mut it = batch.into_iter();
        match it.next() {
            None => Steal::Empty,
            Some(first) => {
                for v in it {
                    dest.push(v);
                }
                Steal::Success(first)
            }
        }
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Injector").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1), "thief takes oldest");
        assert_eq!(w.pop(), Some(3), "owner takes newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let w = Worker::new_lifo();
        for i in 0..10_000 {
            w.push(i);
        }
        assert_eq!(w.len(), 10_000);
        for i in (0..10_000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
    }

    #[test]
    fn batch_steal_moves_half_and_pops_first() {
        let victim = Worker::new_lifo();
        let thief = Worker::new_lifo();
        for i in 0..8 {
            victim.push(i);
        }
        let got = victim.stealer().steal_batch_and_pop(&thief);
        assert_eq!(got, Steal::Success(0), "batch yields the oldest first");
        // Half of 8 = 4 moved: one returned, three in the thief's deque.
        assert_eq!(thief.len(), 3);
        assert_eq!(victim.len(), 4);
        // Thief's deque preserves FIFO order of the batch under LIFO pop?
        // No: thief pops newest first — the batch was pushed 1,2,3.
        assert_eq!(thief.pop(), Some(3));
    }

    #[test]
    fn injector_fifo_and_batch() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        assert_eq!(inj.steal(), Steal::Success(0));
        let w = Worker::new_lifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(1));
        assert!(inj.len() < 9);
    }

    #[test]
    fn drop_releases_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let w = Worker::new_lifo();
            for _ in 0..100 {
                w.push(D);
            }
            for _ in 0..250 {
                w.push(D);
                w.pop();
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 350);
    }

    #[test]
    fn concurrent_steal_conserves_elements() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const N: usize = 100_000;
        let w = Worker::new_lifo();
        // Per-element delivery flags: batch stealing racing an owner that
        // pops down into the thief's planned range must never hand the
        // same element out twice (the owner removes non-last elements by
        // moving `bottom` alone, invisible to a bulk CAS on `top`).
        let seen: Arc<Vec<AtomicBool>> =
            Arc::new((0..N).map(|_| AtomicBool::new(false)).collect());
        let taken = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..4)
            .map(|_| {
                let s = w.stealer();
                let seen = seen.clone();
                let taken = taken.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let local = Worker::new_lifo();
                    let claim = |i: usize| {
                        assert!(!seen[i].swap(true, Ordering::Relaxed), "element {i} delivered twice");
                        taken.fetch_add(1, Ordering::Relaxed);
                    };
                    loop {
                        match s.steal_batch_and_pop(&local) {
                            Steal::Success(i) => {
                                claim(i);
                                while let Some(i) = local.pop() {
                                    claim(i);
                                }
                            }
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) == 1 {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                            Steal::Retry => {}
                        }
                    }
                })
            })
            .collect();
        let mut popped = 0;
        for i in 0..N {
            w.push(i);
            if i % 3 == 0 {
                if let Some(j) = w.pop() {
                    assert!(!seen[j].swap(true, Ordering::Relaxed), "element {j} delivered twice");
                    popped += 1;
                }
            }
        }
        while let Some(j) = w.pop() {
            assert!(!seen[j].swap(true, Ordering::Relaxed), "element {j} delivered twice");
            popped += 1;
        }
        done.store(1, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(popped + taken.load(Ordering::Relaxed), N);
    }
}
