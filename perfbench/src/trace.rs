//! In-memory spans for the traced run, written out at exit as
//! chrome://tracing JSON. Spans are recorded only here, around the
//! public calls the benchmark makes; each call's children are the
//! `PhaseStat`s it returns (or, for a serve request, the `queue_ms` and
//! `wall_ms` its response reports), laid end to end from the call's
//! start in the order returned.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mmjoin_core::prelude::PhaseStat;
use mmjoin_util::jsonv;

use crate::stats;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Request or call id; the spans of one call share it.
    pub id: u64,
    pub parent: Option<usize>,
    /// Milliseconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    /// Counts recorded at the same boundary (tuples, tasks, bytes, ...).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    pub fn arg(&self, key: &str) -> f64 {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
        args: Vec<(&'static str, f64)>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            start,
            end,
            args,
        });
        self.spans.len() - 1
    }

    /// One child span per returned phase, named `<parent>.<phase>`,
    /// with the phase's executor, allocation, spill and model counters.
    pub fn push_phases(&mut self, parent: usize, phases: &[PhaseStat]) {
        let (prefix, id, mut t) = {
            let p = &self.spans[parent];
            (p.name.clone(), p.id, p.start)
        };
        for ph in phases {
            let wall = ph.wall.as_secs_f64() * 1e3;
            let args = vec![
                ("tasks", ph.exec.tasks as f64),
                ("steals", ph.exec.steals as f64),
                ("idle_ms", ph.exec.idle_ns as f64 / 1e6),
                ("mapped_bytes", ph.alloc.mapped_bytes as f64),
                ("mapped_blocks", ph.alloc.mapped_blocks as f64),
                ("pool_hits", ph.alloc.pool_hits as f64),
                ("heap_fallback", ph.alloc.heap_fallback as f64),
                ("spill_bytes", ph.spill.bytes_spilled as f64),
                ("spill_partitions", ph.spill.partitions_spilled as f64),
                ("recursion_depth", ph.spill.recursion_depth as f64),
                ("sim_ms", ph.sim_seconds * 1e3),
            ];
            self.push(
                format!("{prefix}.{}", ph.name),
                id,
                Some(parent),
                t,
                t + wall,
                args,
            );
            t += wall;
        }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans called `name` (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.named(name).map(Span::dur).collect();
        stats::median(&d)
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, k)| {
                let iv: Vec<(f64, f64)> = k
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end))
                    .collect();
                stats::self_time(s.start, s.end, &iv)
            })
            .collect()
    }

    /// Sum of self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name.clone()).or_insert(0.0) += t;
        }
        out
    }

    /// For every span with children: the children's summed duration as
    /// a share of the span's own. Returned phase walls that account
    /// for their call read close to 1.
    pub fn coverage(&self) -> Vec<(String, f64)> {
        let kids = self.children();
        self.spans
            .iter()
            .zip(&kids)
            .filter(|(s, k)| !k.is_empty() && s.dur() > 0.0)
            .map(|(s, k)| {
                let sum: f64 = k.iter().map(|&c| self.spans[c].dur()).sum();
                (s.name.clone(), sum / s.dur())
            })
            .collect()
    }

    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{}",
                s.name,
                1 + s.id % 16,
                s.start * 1e3,
                s.dur() * 1e3,
                s.id,
                s.parent.map_or(-1, |p| p as i64),
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Write the chrome trace to `path` and read it back through
    /// `jsonv`: every span must come back as one complete event with its
    /// name, id and parent intact. Returns the event count.
    pub fn write_verified(&self, path: &std::path::Path) -> Result<usize, String> {
        let text = self.chrome_json();
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let back = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let v = jsonv::parse(&back)?;
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .ok_or("traceEvents missing")?;
        if events.len() != self.spans.len() {
            return Err(format!(
                "{} events for {} spans",
                events.len(),
                self.spans.len()
            ));
        }
        for (e, s) in events.iter().zip(&self.spans) {
            let name = e.get("name").and_then(|n| n.as_str());
            let args = e.get("args");
            let id = args.and_then(|a| a.get("id")).and_then(|n| n.as_num());
            let parent = args.and_then(|a| a.get("parent")).and_then(|n| n.as_num());
            let want_parent = s.parent.map_or(-1.0, |p| p as f64);
            if name != Some(s.name.as_str())
                || e.get("ph").and_then(|p| p.as_str()) != Some("X")
                || id != Some(s.id as f64)
                || parent != Some(want_parent)
                || e.get("dur").and_then(|d| d.as_num()).is_none()
            {
                return Err(format!("span {:?} did not round-trip: {e:?}", s.name));
            }
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_round_trip() {
        let mut t = Tracer::new(Instant::now());
        let call = t.push("nop", 7, None, 0.0, 10.0, vec![("tuples", 5.0)]);
        t.push("nop.build", 7, Some(call), 0.0, 3.0, vec![]);
        t.push("nop.probe", 7, Some(call), 3.0, 9.0, vec![]);
        let selfs = t.self_times();
        assert_eq!(selfs, vec![1.0, 3.0, 6.0]);
        assert!(selfs.iter().all(|&s| s >= 0.0));
        assert_eq!(t.coverage(), vec![("nop".to_string(), 0.9)]);
        assert_eq!(t.median_ms("nop.probe"), 6.0);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = t.write_verified(&dir.join("t.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(n, 3);
    }
}
