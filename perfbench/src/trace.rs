//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span is `(name, start, end, parent, cell)`. Spans are kept in a
//! per-thread buffer while the run goes on and are written out once it ends;
//! with tracing off, [`span`] only calls its closure. Every call into the
//! simulator happens on the benchmark's main thread, so one thread-local
//! buffer sees all spans, including the ones observers record from inside a
//! run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One traced interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, as `<crate>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The simulated cell (or served request) the span belongs to.
    pub cell: Option<u32>,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(enabled: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = enabled);
}

/// Whether spans are being recorded on the calling thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Runs `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<T>(name: &'static str, cell: Option<u32>, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let now = t.ns(Instant::now());
        let parent = t.open.last().copied();
        t.spans.push(Span { name, start_ns: now, end_ns: now, parent, cell });
        let index = t.spans.len() - 1;
        t.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let now = t.ns(Instant::now());
            t.spans[index].end_ns = now;
            let top = t.open.pop();
            debug_assert_eq!(top, Some(index), "spans close in the order they opened");
        });
    }
    out
}

/// Records an interval that was timed elsewhere (an observer callback) as a
/// child of the innermost open span.
pub fn record(name: &'static str, cell: Option<u32>, start: Instant, end: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            let (start_ns, end_ns) = (t.ns(start), t.ns(end));
            let parent = t.open.last().copied();
            t.spans.push(Span { name, start_ns, end_ns, parent, cell });
        }
    });
}

/// Removes and returns every span recorded so far on the calling thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.open.is_empty(), "spans are taken between passes");
        std::mem::take(&mut t.spans)
    })
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `self_ns`,
/// `parent` (index or null) and `cell` (id or null).
pub fn to_json_lines(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"self_ns":{},"parent":{},"cell":{}}}"#,
            span.name,
            span.start_ns,
            span.end_ns,
            own,
            opt(span.parent.map(|p| p as u64)),
            opt(span.cell.map(u64::from)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, cell: None }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            at("pass", 0, 100, None),
            at("build", 10, 40, Some(0)),
            at("generate", 12, 30, Some(1)),
            at("run", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 12, 18, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            at("parent", 100, 200, None),
            at("a", 90, 130, Some(0)),
            at("b", 120, 150, Some(0)),
            at("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        set_enabled(true);
        let value = span("outer", Some(7), || span("inner", None, || 41) + 1);
        let now = Instant::now();
        span("other", None, || record("observed", Some(3), now, now));
        set_enabled(false);
        span("ignored", None, || ());
        let spans = take();
        assert_eq!(value, 42);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "other", "observed"]);
        assert_eq!(spans[0].cell, Some(7));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn json_lines_carry_every_field() {
        let spans =
            vec![at("pass", 0, 10, None), Span { cell: Some(2), ..at("run", 2, 5, Some(0)) }];
        let text = to_json_lines(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"name":"pass","start_ns":0,"end_ns":10,"self_ns":7,"parent":null,"cell":null}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"run","start_ns":2,"end_ns":5,"self_ns":3,"parent":0,"cell":2}"#
        );
    }
}
