//! Spans the benchmark records around its own calls into the program's
//! layers. They stay in memory while the benchmark runs and are written
//! once, at the end, through the telemetry crate's JSON writer.
//!
//! A call made millions of times per run (`Machine::step`,
//! `PowerManager::on_translation`) is kept as one aggregate span per run
//! and call kind: its call count, the summed duration of its calls
//! (`busy`), and the interval from the first call's start to the last
//! call's end. Everything else is one span per call.

use std::time::Instant;

use powerchop_telemetry::export::{validate_json, JsonWriter};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer function, e.g. `bt.translation`.
    pub name: &'static str,
    /// The run (benchmark index) or request the span belongs to.
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// Calls of one kind within one run, folded as they happen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub busy_ns: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Agg {
    /// Folds one call that ran from `from` to `to`.
    #[inline]
    pub fn add(&mut self, from: Instant, to: Instant) {
        self.calls += 1;
        self.busy_ns += u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX);
        if self.first.is_none() {
            self.first = Some(from);
        }
        self.last = Some(to);
    }
}

/// The in-memory span store of one benchmark invocation.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a plain span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, run: u64, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns.saturating_sub(span.start_ns);
    }

    /// Stores a span that ran from `start` to `end`.
    pub fn push(
        &mut self,
        name: &'static str,
        run: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
        self.spans.len() - 1
    }

    /// Stores a folded call kind as one span under `parent` and returns
    /// its index; a kind that was never called leaves no span.
    pub fn push_agg(
        &mut self,
        name: &'static str,
        run: u64,
        parent: usize,
        agg: &Agg,
    ) -> Option<usize> {
        if agg.calls == 0 {
            return None;
        }
        let start_ns = agg.first.map_or(0, |t| self.ns(t));
        let end_ns = agg.last.map_or(0, |t| self.ns(t));
        self.spans.push(Span {
            name,
            run,
            parent: Some(parent),
            start_ns,
            end_ns,
            calls: agg.calls,
            busy_ns: agg.busy_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Summed call count of every span named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Summed duration of every span named `name`.
    #[cfg(test)]
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.busy_ns).sum()
    }

    /// Self time of every span named `name`: its duration minus the part
    /// its child spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns_of(i))
            .sum()
    }

    fn self_ns_of(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Renders every span as one JSON array and checks the result parses.
    ///
    /// # Errors
    ///
    /// Returns the validator's message if the rendered text is not JSON.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = JsonWriter::array();
        for (id, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::object();
            w.field_u64("id", id as u64);
            w.field_str("name", s.name);
            w.field_u64("run", s.run);
            match s.parent {
                Some(p) => w.field_u64("parent", p as u64),
                None => w.field_raw("parent", "null"),
            }
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.field_u64("calls", s.calls);
            w.field_u64("busy_ns", s.busy_ns);
            w.field_u64("self_ns", self.self_ns_of(id));
            out.push_raw(&w.finish());
        }
        let text = out.finish();
        validate_json(&text).map_err(|e| e.to_string())?;
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_json_validates() {
        let mut log = SpanLog::new();
        let root = log.open("run", 7, None);
        let t0 = Instant::now();
        let mut outer = Agg::default();
        let mut inner = Agg::default();
        outer.add(t0, t0 + Duration::from_nanos(1_000));
        inner.add(t0, t0 + Duration::from_nanos(300));
        inner.add(t0, t0 + Duration::from_nanos(200));
        log.close(root);
        let o = log
            .push_agg("faults.deliver", 7, root, &outer)
            .expect("called");
        log.push_agg("powerchop.on_fault", 7, o, &inner);
        assert_eq!(log.push_agg("never.called", 7, root, &Agg::default()), None);
        assert_eq!(log.calls("powerchop.on_fault"), 2);
        assert_eq!(log.busy_ns("faults.deliver"), 1_000);
        assert_eq!(log.self_ns("faults.deliver"), 500);
        assert_eq!(log.calls("never.called"), 0);
        let json = log.to_json().expect("valid JSON");
        assert!(json.contains(r#""name":"faults.deliver","run":7"#));
    }
}
