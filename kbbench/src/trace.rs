//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the program's public functions — nothing inside the program
//! changes. They stay in memory until the run ends and are then written
//! to the trace file. A layer's *self time* is its spans' duration minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The batch or query this span belongs to; spans of one operation
    /// share it.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug)]
#[must_use = "an entered span must be closed with Recorder::exit"]
pub struct Open(u32);

/// Records spans for one thread; merge threads with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The shared clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Open(id)
    }

    /// Close the innermost open span, which must be `open`. Returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.secs()
    }

    /// Record `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let result = f();
        (result, self.exit(open))
    }

    /// Append another thread's finished spans.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.stack.is_empty(),
            "absorbed recorder still has open spans"
        );
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// All spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.secs();
            entry.2 += (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Write [`Recorder::render`]'s document to `path`.
    pub fn write(&self, path: &Path, header: Json) -> std::io::Result<()> {
        std::fs::write(path, self.render(header))
    }

    /// Every span plus the per-name summary as one JSON document.
    pub fn render(&self, header: Json) -> String {
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                let row = obj([
                    ("count", count.into()),
                    ("total_s", total.into()),
                    ("self_s", own.into()),
                ]);
                (name.to_string(), row)
            })
            .collect();
        // One span per line keeps a multi-megabyte trace greppable.
        let mut text = String::from("{\n\"run\": ");
        text.push_str(&header.compact());
        text.push_str(",\n\"summary\": ");
        text.push_str(&Json::Obj(summary).compact());
        text.push_str(",\n\"columns\": [\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\n\"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            text.push_str(&format!(
                "[{id},\"{}\",{},{},{parent},{}]{comma}\n",
                span.name, span.start_ns, span.end_ns, span.op
            ));
        }
        text.push_str("]\n}\n");
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now());
        let outer = rec.enter("core.outer", 1);
        let (_, inner) = rec.time("store.inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer_secs = rec.exit(outer);
        assert!(inner >= 0.005 && outer_secs >= inner);
        let summary = rec.summary();
        let (count, total, own) = summary["core.outer"];
        assert_eq!(count, 1);
        assert!(
            (total - own - inner).abs() < 1e-9,
            "self = total - children"
        );
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.total("store.inner"), inner);
    }

    #[test]
    fn absorb_rebases_parents_and_trace_parses() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin);
        let _ = main.time("serve.a", 0, || ());
        let mut worker = Recorder::new(origin);
        let open = worker.enter("serve.b", 7);
        let _ = worker.time("index.c", 7, || ());
        worker.exit(open);
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));

        let doc = Json::parse(&main.render(obj([("workload", "t".into())]))).unwrap();
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert!(doc.get("summary").and_then(|s| s.get("index.c")).is_some());
    }
}
