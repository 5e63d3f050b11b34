//! In-memory spans recorded by the harness around calls into the crates'
//! public functions; written out once, when the traced run ends.

use crate::json::{array, object, quote};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// identifier shared by every span of one step (0 = outside any step).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Identifier stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.enter_at(name, start_ns)
    }

    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now();
        self.exit_at(idx, end_ns);
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id: self.id,
        });
        self.open.push(idx);
        idx
    }

    fn exit_at(&mut self, idx: usize, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns() - covered
    }

    /// Summed duration of the spans called `name` carrying step `id`.
    pub fn total_ns(&self, name: &str, id: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.id == id && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Summed self time of the spans called `name` carrying step `id`.
    pub fn total_self_ns(&self, name: &str, id: u64) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].id == id && self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> String {
        // One pass over the children instead of `self_ns` per span.
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                object(&[
                    ("i".into(), format!("{i}")),
                    ("name".into(), quote(s.name)),
                    ("start_ns".into(), format!("{}", s.start_ns)),
                    ("end_ns".into(), format!("{}", s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or("null".into(), |p| format!("{p}")),
                    ),
                    ("id".into(), format!("{}", s.id)),
                    ("self_ns".into(), format!("{}", s.dur_ns() - covered[i])),
                ])
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"spans\": {}}}\n",
            quote(workload),
            array(&spans).replace("}, {", "},\n{")
        )
    }

    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(workload))
    }
}

/// Shared handle: the harness holds a span open around `App::run` while
/// the [`crate::trace::Traced`] observers inside it record their own.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Record a span called `name` around `f`.
pub fn scope<R>(tr: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = tr.borrow_mut().enter(name);
    let out = f();
    tr.borrow_mut().exit(idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// step[0,100] { rhs[10,40] { vol[12,20] surf[20,35] } axpy[40,50] rhs[50,90] }
    fn nested() -> Tracer {
        let mut t = Tracer::default();
        t.set_id(7);
        let step = t.enter_at("step", 0);
        let rhs = t.enter_at("rhs", 10);
        let vol = t.enter_at("vol", 12);
        t.exit_at(vol, 20);
        let surf = t.enter_at("surf", 20);
        t.exit_at(surf, 35);
        t.exit_at(rhs, 40);
        let axpy = t.enter_at("axpy", 40);
        t.exit_at(axpy, 50);
        let rhs2 = t.enter_at("rhs", 50);
        t.exit_at(rhs2, 90);
        t.exit_at(step, 100);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = nested();
        // step: 100 - (30 + 10 + 40) siblings; grandchildren not double counted.
        assert_eq!(t.self_ns(0), 20);
        // first rhs: 30 - (8 + 15) nested children.
        assert_eq!(t.self_ns(1), 7);
        // leaves keep their whole duration.
        assert_eq!(t.self_ns(2), 8);
        assert_eq!(t.self_ns(5), 40);
        // every nanosecond of the root is attributed exactly once.
        let total: u64 = (0..t.spans().len()).map(|i| t.self_ns(i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn totals_group_by_name_and_step_id() {
        let t = nested();
        assert_eq!(t.total_ns("rhs", 7), 70);
        assert_eq!(t.total_self_ns("rhs", 7), 47);
        assert_eq!(t.total_ns("rhs", 8), 0);
        assert_eq!(t.durations_ns("rhs"), vec![30.0, 40.0]);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn json_carries_name_start_end_parent() {
        let json = nested().to_json("w");
        assert!(json.contains("\"name\": \"vol\", \"start_ns\": 12, \"end_ns\": 20, \"parent\": 1"));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
