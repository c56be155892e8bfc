//! In-memory span recorder for the traced run.
//!
//! A span is `(name, tag, start, end, parent, op)`. Spans are opened only
//! by this benchmark's own code, around its calls into the program's
//! public functions, and only on the thread that drives the workload.
//! They are kept in memory and written out once, after the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.run`.
    pub name: &'static str,
    /// Qualifier, e.g. a variant or route name (may be empty).
    pub tag: &'static str,
    /// Start, in nanoseconds since tracing began.
    pub start_ns: u64,
    /// End, in nanoseconds since tracing began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    paused: bool,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording on this thread.
pub fn begin() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            paused: false,
        });
    });
}

/// Stops recording on this thread and returns what was recorded.
#[must_use]
pub fn end() -> Trace {
    let spans = TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default());
    Trace { spans }
}

/// Sets the operation id that new spans carry, and whether that
/// operation's spans are recorded at all (`record: false` makes it run
/// as if untraced).
pub fn set_op(op: u64, record: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op = op;
            t.paused = !record;
        }
    });
}

/// An open span; it closes when dropped. A no-op when not recording.
#[must_use = "the span closes when the guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span nested in the innermost open one.
pub fn span(name: &'static str, tag: &'static str) -> Guard {
    Guard(TRACER.with(|t| {
        t.borrow_mut().as_mut().filter(|t| !t.paused).map(|t| {
            let idx = t.spans.len();
            let start_ns = now_ns(t.epoch);
            t.spans.push(Span {
                name,
                tag,
                start_ns,
                end_ns: start_ns,
                parent: t.open.last().copied(),
                op: t.op,
            });
            t.open.push(idx);
            idx
        })
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[idx].end_ns = now_ns(t.epoch);
                let top = t.open.pop();
                debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
            }
        });
    }
}

/// The spans of one traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in opening order.
    pub spans: Vec<Span>,
}

impl Trace {
    fn matching<'a>(
        &'a self,
        name: &'a str,
        tag: Option<&'a str>,
    ) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && tag.is_none_or(|t| s.tag == t))
    }

    /// Durations (ms) of the spans named `name` (and tagged `tag`).
    #[must_use]
    pub fn durations_ms(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.matching(name, tag).map(|(_, s)| s.ms()).collect()
    }

    /// Summed duration (ms) of the matching spans.
    #[must_use]
    pub fn total_ms(&self, name: &str, tag: Option<&str>) -> f64 {
        self.matching(name, tag).map(|(_, s)| s.ms()).sum()
    }

    /// Number of matching spans whose op is below `ops`.
    #[must_use]
    pub fn count_before(&self, name: &str, tag: Option<&str>, ops: u64) -> usize {
        self.matching(name, tag).filter(|(_, s)| s.op < ops).count()
    }

    /// Summed self time (ms) of the matching spans: each span's duration
    /// minus the part its direct children cover.
    #[must_use]
    pub fn self_ms(&self, name: &str, tag: Option<&str>) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.matching(name, tag)
            .map(|(i, s)| {
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(child_ns[i]) as f64
            })
            .sum::<f64>()
            / 1e6
    }

    /// Writes every span as a tab-separated line:
    /// `index name tag start_ns end_ns parent op`.
    ///
    /// # Errors
    /// Propagates the write failure.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index\tname\ttag\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.tag, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        begin();
        set_op(3, true);
        {
            let _outer = span("outer", "");
            let _inner = span("inner", "x");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_op(4, false);
        let _unrecorded = span("outer", "");
        let t = end();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 3);
        assert!(t.total_ms("inner", Some("x")) >= 2.0);
        assert!(t.self_ms("outer", None) < t.total_ms("inner", None));
        assert_eq!(t.count_before("inner", None, 4), 1);
        assert_eq!(t.count_before("inner", None, 3), 0);
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        let _g = span("ignored", "");
        assert!(end().spans.is_empty());
    }
}
