//! The traced run's span recorder. Spans wrap the benchmark's own calls
//! into each layer's public functions; nothing is recorded inside the
//! program. They are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `group` is the session, query or frame batch it
/// belongs to; `parent` the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Tracer::span`] only runs the call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own children with.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        group: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        let id = self.open(name, parent, group);
        let out = f(id);
        self.close(id);
        out
    }

    /// Starts a span that [`Tracer::close`] ends, for windows that do not
    /// fit one closure; `None` when tracing is off.
    pub fn open(&self, name: &'static str, parent: Option<u32>, group: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            name,
            group,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn close(&self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span buffer poisoned")[id as usize].end_ns = end_ns;
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Σ self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Share of the benchmark's own windows (spans named `bench.*`: set-ups,
/// sessions, queries, the generator's stream) that their children — the
/// timed layer calls — cover.
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        if s.name.starts_with("bench.") {
            wall += s.dur_ns();
            uncovered += t;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / wall as f64
    }
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out += &format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.name, s.group, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            group: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A grandchild is its parent's, not the root's.
            span(3, Some(2), 35, 45),
            // A child running past its parent is clipped at the parent's end.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20 - 10, 10, 30]);
    }

    #[test]
    fn layer_coverage_is_the_covered_share_of_windows() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 75),
            span(2, None, 200, 300),
            span(3, Some(2), 200, 300),
        ];
        assert_eq!(layer_coverage(&spans), 0.0, "no bench.* window");
        spans[0].name = "bench.session";
        assert_eq!(layer_coverage(&spans), 0.75);
        spans[2].name = "bench.query";
        assert_eq!(layer_coverage(&spans), 0.875);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let t = Tracer::new(true);
        t.span("outer", None, 7, |id| t.span("inner", id, 7, |_| ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), None);
        assert!(off.take().is_empty());
    }
}
