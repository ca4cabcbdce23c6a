//! The harness's own span recorder for the traced run: spans are kept
//! in memory while the walk runs and written out as JSON lines at the
//! end. A span's self time is its duration minus the part of it its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id shared by every span of one request tree.
    pub tree: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (a span around a loop of 256 parses
    /// has `count` 256), so per-operation cost is duration over count.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records well-nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, outermost first.
    open: Vec<usize>,
    trees: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trees: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name` covering `count`
    /// operations. A span opened while no other is open starts a new
    /// tree.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        count: u64,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let tree = match self.open.first() {
            Some(&root) => self.spans[root].tree,
            None => {
                self.trees += 1;
                self.trees
            }
        };
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32 + 1,
            tree,
            parent,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            count,
        });
        self.open.push(index);
        let value = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(Span::duration_ns).sum();
        ns as f64 / 1e9
    }

    /// Mean duration per covered operation of the spans called `name`,
    /// in nanoseconds; zero if there are none.
    pub fn per_op_ns(&self, name: &str) -> f64 {
        let (ns, ops) = self.named(name).fold((0u64, 0u64), |(ns, ops), s| {
            (ns + s.duration_ns(), ops + s.count)
        });
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *by_name.entry(span.name).or_insert(0) += self_ns;
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"tree\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"count\":{},\"self_ns\":{self_ns}}}",
                span.id, span.tree, span.name, span.start_ns, span.end_ns, span.count
            )?;
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            tree: 1,
            parent,
            name: "x",
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            // Overlaps its sibling and overruns the parent: only the
            // part not yet covered, inside the parent, counts.
            span(3, Some(1), 30, 120),
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![10, 25, 90, 5]);
    }

    #[test]
    fn recorder_nests_and_numbers_trees() {
        let mut rec = Recorder::new();
        rec.span("build", 1, |rec| {
            rec.span("graph.gen", 1, |_| ());
            rec.span("core.engine.compile", 4, |_| ());
        });
        rec.span("certify", 1, |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_eq!((spans[0].tree, spans[2].tree, spans[3].tree), (1, 1, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let mut text = Vec::new();
        rec.write_jsonl(&mut text).expect("writes to memory");
        let text = String::from_utf8(text).expect("ascii");
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .next()
            .is_some_and(|l| l.contains("\"parent\":null")
                && l.contains("\"name\":\"build\"")
                && l.contains("\"self_ns\":")));
        assert!(rec.self_time_by_name().contains_key("graph.gen"));
    }
}
