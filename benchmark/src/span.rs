//! In-memory spans around the harness's calls into product layers.
//!
//! One span per call: name, start, end, the span that caused it, and an
//! `op_id` shared by every span of one query or statement. Spans are kept
//! in memory and written out once, when the run ends. All calls into the
//! layers are made from the harness's main thread, so the recorder is a
//! plain stack; the engine's own worker threads are not traced here
//! (tracing inside the crates is a later change).

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 1,
        }
    }

    /// Recording is off for end-to-end measurements and on for the traced
    /// rounds; `scope` costs one branch when off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A fresh identifier for the next query or statement.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// Run `f` inside a span named `name` (a child of the innermost open
    /// span). The tracer is handed back to `f` so it can open children.
    pub fn scope<R>(&mut self, name: &str, op_id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of it its direct
    /// children cover. Children of one parent never overlap (one stack),
    /// so the covered part is the sum of their durations.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let own = self.self_times();
        let mut by_name: Vec<(String, u64, usize)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(entry) => {
                    entry.1 += ns;
                    entry.2 += 1;
                }
                None => by_name.push((span.name.clone(), ns, 1)),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        by_name
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_times();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The span-tree invariants: a span ends no earlier than it starts, its
/// parent was opened before it, and it lies inside its parent.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            if p >= id {
                return Err(format!("span {id} has a parent opened after it"));
            }
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {id} ({}) is not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_lie_inside_parents_and_self_time_adds_up() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let op = t.next_op();
        t.scope("query", op, |t| {
            busy(200_000);
            t.scope("parse", op, |_| busy(100_000));
            t.scope("execute", op, |t| {
                t.scope("encode", op, |_| busy(50_000));
                busy(100_000);
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        validate(spans).unwrap();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op_id == op));

        let own = t.self_times();
        let total: u64 = own.iter().sum();
        assert_eq!(
            total,
            spans[0].end_ns - spans[0].start_ns,
            "self times partition the root"
        );
        assert!(own[0] >= 200_000, "root keeps its own 200 us: {}", own[0]);
        assert!(own[2] >= 100_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.scope("x", 1, |t| t.scope("y", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let spans = vec![
            Span {
                name: "p".into(),
                start_ns: 10,
                end_ns: 20,
                parent: None,
                op_id: 1,
            },
            Span {
                name: "c".into(),
                start_ns: 15,
                end_ns: 25,
                parent: Some(0),
                op_id: 1,
            },
        ];
        assert!(validate(&spans).is_err());
    }
}
