//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and run id (the id
//! of the root span of its tree, shared by every span of one job). Spans
//! are kept in memory and written out once, when the run ends. A
//! disabled tracer records nothing and costs one branch per call; the
//! untraced `check-full` passes run through one, so they share their
//! code with the traced pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent's id and the run it belongs to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    run: u64,
}

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent` (a new run when
    /// `None`); `f` receives the context its own child spans hang from.
    pub fn span<R>(&self, parent: Option<Ctx>, name: &str, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(Ctx::default());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ctx = Ctx {
            id,
            run: parent.map_or(id, |p| p.run),
        };
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(ctx);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent: parent.map(|p| p.id),
            run: ctx.run,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("span buffer lock");
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval that its children cover (children running in
/// parallel are merged, so overlap is not subtracted twice).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *by_layer.entry(s.layer().to_string()).or_default() += own as f64 * 1e-9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "harness.runner", 0, 1_000),
            span(2, Some(1), "conformance.cell", 100, 600),
            span(3, Some(1), "conformance.cell", 400, 800),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["harness"] - 300e-9).abs() < 1e-15);
        assert!((by_layer["conformance"] - 900e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span(None, "graph.x", |ctx| t.span(Some(ctx), "graph.y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_share_the_root_run_id() {
        let t = Tracer::on();
        t.span(None, "a.root", |ctx| t.span(Some(ctx), "b.child", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].run, spans[1].run);
        let root = spans.iter().find(|s| s.name == "a.root").unwrap();
        let child = spans.iter().find(|s| s.name == "b.child").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }
}
