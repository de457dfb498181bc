//! Outside-in tracing: spans recorded by the benchmark's own phase
//! drivers around calls into the program's public functions. Spans stay
//! in memory during a run and are written as `trace.jsonl` at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the same rank's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub step: u64,
    pub rank: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-rank span recorder. All ranks of a world share one `epoch`, so
/// their timelines line up in the written trace.
pub struct Tracer {
    epoch: Instant,
    rank: u32,
    /// Step number stamped on spans opened from now on.
    pub step: u64,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, rank: usize) -> Self {
        Tracer {
            epoch,
            rank: rank as u32,
            step: 0,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            rank: self.rank,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
}

/// Self time of every span in one rank's list: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Summed duration in seconds of the spans called `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Write a traced run's spans as `trace.jsonl` in the scratch directory.
pub fn write_trace(ranks: &[Vec<Span>]) -> Result<(), String> {
    let dir = crate::report::scratch_root();
    std::fs::create_dir_all(&dir)
        .and_then(|()| write_jsonl(&dir.join("trace.jsonl"), ranks))
        .map_err(|e| format!("trace.jsonl: {e}"))
}

/// Write every rank's spans, one JSON object per line.
fn write_jsonl(path: &Path, ranks: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in ranks {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"rank\":{},\"step\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.rank, s.step, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            step: 0,
            rank: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child by 10
            span(60, 70, Some(0)),
            span(62, 65, Some(3)), // grandchild: only its parent pays
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50, 20, 30, 7, 3]);
    }

    #[test]
    fn tracer_nests_and_stamps() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.step = 9;
        let outer = t.enter("step");
        let got = t.span("leaf", || 42);
        t.exit(outer);
        assert_eq!(got, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[1].rank, t.spans[1].step), (3, 9));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(busy_s(&t.spans, "step") >= busy_s(&t.spans, "leaf"));
    }
}
