//! In-memory span recorder for the single-thread mirror.
//!
//! Each span has a name, an optional weight-layer index, start and end
//! (nanoseconds since the tracer was created), the index of the span
//! that encloses it, and the mirrored trial it belongs to. Spans are
//! kept in memory and written out as JSON lines when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span measures, e.g. `dnn.gemm`.
    pub name: &'static str,
    /// Weight-layer index, for per-layer spans.
    pub layer: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Mirrored trial (or scheme) the span belongs to.
    pub trial: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::with_capacity(16),
            trial: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the trial id stamped on spans opened from now on.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    /// Makes room for `additional` more spans, so recording them does not
    /// allocate inside a measured window.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Total nanoseconds of the spans named `name` (on `layer`, when
    /// given).
    pub fn total_ns(&self, name: &str, layer: Option<usize>) -> u64 {
        self.matching(name, layer).map(Span::ns).sum()
    }

    /// Number of spans named `name` (on `layer`, when given).
    pub fn count(&self, name: &str, layer: Option<usize>) -> usize {
        self.matching(name, layer).count()
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        layer: Option<usize>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && (layer.is_none() || s.layer == layer))
    }

    /// `trace.coverage`: the share of the spans named `root` that their
    /// direct children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut kids: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push((s.start, s.end));
            }
        }
        let (roots, children): (Vec<_>, Vec<_>) = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| ((s.start, s.end), kids.remove(&i).unwrap_or_default()))
            .unzip();
        stats::coverage(&roots, &children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trial\":{}}}",
                s.name,
                opt(s.layer),
                s.start,
                s.end,
                opt(s.parent),
                s.trial
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::default();
        t.set_trial(7);
        t.span("root", None, |t| {
            t.span("a", Some(1), |_| ());
            t.span("b", None, |t| t.span("c", None, |_| ()));
        });
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.trial == 7 && x.start <= x.end));
        assert_eq!(t.count("a", Some(1)), 1);
        assert_eq!(t.count("a", Some(0)), 0);
        let cov = t.coverage("root");
        assert!((0.0..=1.0).contains(&cov), "{cov}");
    }
}
