//! The benchmark's own spans: name, start, end and parent, recorded
//! around each call into the runtime's public API. They are kept in
//! memory and written once at the end as a Chrome trace-event file that
//! Perfetto loads. Recording is off unless [`enable`] was called, so the
//! end-to-end runs pay one relaxed load per span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    detail: &'static str,
    tid: u64,
    start_us: f64,
    end_us: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last (the parent of a new span).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Start recording spans.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording spans (those already recorded are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Run `f` inside a span named `name` (with a `detail` such as the
/// variant), parented to the innermost open span on this thread.
pub fn span<R>(name: &'static str, detail: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = Instant::now();
    // Pop the stack even if `f` unwinds, so a failed op does not
    // become the parent of every later span.
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            STACK.with(|s| s.borrow_mut().pop());
        }
    }
    let pop = Pop;
    let out = f();
    drop(pop);
    let end = Instant::now();
    let span = Span {
        id,
        parent,
        name,
        detail,
        tid: TID.with(|t| *t),
        start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
        end_us: end.duration_since(epoch).as_secs_f64() * 1e6,
    };
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panic")
        .push(span);
    out
}

/// Number of spans recorded so far.
#[cfg(test)]
pub fn recorded() -> usize {
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panic")
        .len()
}

/// Every recorded span as a Chrome trace-event JSON document (complete
/// `X` events; `args` carry the span id and its parent's id).
pub fn chrome_json() -> String {
    let spans = SPANS.lock().expect("span buffer lock poisoned by a panic");
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
            s.name,
            s.tid,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            s.parent,
            s.detail
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        enable();
        let before = recorded();
        span("outer", "spans-test", || span("inner", "spans-test", || ()));
        assert!(recorded() >= before + 2);
        let json = chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"inner\""));
        // Other tests may record concurrently: find this test's spans.
        let spans = SPANS.lock().unwrap();
        let find = |name| {
            spans
                .iter()
                .find(|s| s.name == name && s.detail == "spans-test")
                .unwrap()
        };
        let (inner, outer) = (find("inner"), find("outer"));
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
    }
}
