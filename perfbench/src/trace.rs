//! In-memory span recorder for the traced run, and the [`Timed`] solver
//! wrapper that puts spans around every `LevelSolver` call.
//!
//! Spans are recorded on the producer thread only (setup, each step, the
//! solver calls made inside a step, finish), kept in a thread-local
//! vector, and written out once the benchmark ends. Recording is off
//! unless [`start_run`] turned it on, so untraced episodes pay one
//! thread-local flag test per span site and record nothing.

use std::cell::RefCell;
use std::time::Instant;
use xlayer::amr::level_data::LevelData;
use xlayer::amr::tagging::IntVectSet;
use xlayer::solvers::level_solver::LevelFluxes;
use xlayer::solvers::LevelSolver;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the run's span list) of the span open when this one
    /// started.
    pub parent: Option<usize>,
    /// Episode this span belongs to.
    pub run: u32,
    /// Work attributed to the span (cells for a solver advance, else 0).
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    run: u32,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        run: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Begin recording spans for episode `run` on this thread.
pub fn start_run(run: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.run = run;
    });
}

/// Stop recording and hand over every span recorded since the last call.
pub fn stop_run() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// An open span; closing happens on drop.
pub struct Guard(Option<usize>);

/// Open span `name` (a no-op while recording is off).
pub fn span(name: &'static str) -> Guard {
    span_with_work(name, 0)
}

fn span_with_work(name: &'static str, work: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let now = r.epoch.elapsed().as_nanos() as u64;
        let idx = r.spans.len();
        let parent = r.stack.last().copied();
        let run = r.run;
        r.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
            work,
        });
        r.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            if let Some(s) = r.spans.get_mut(idx) {
                s.end_ns = now;
            }
            if r.stack.last() == Some(&idx) {
                r.stack.pop();
            }
        });
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// covered by at least one child. Children may overlap each other (two
/// threads, or a child that outlives a sibling) and may stick out of the
/// parent; each instant is subtracted at most once.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// A `LevelSolver` that spans each trait call of the solver it wraps and
/// otherwise forwards unchanged, so a traced run computes the same
/// solution as an untraced one.
pub struct Timed<S>(pub S);

impl<S: LevelSolver> LevelSolver for Timed<S> {
    fn ncomp(&self) -> usize {
        self.0.ncomp()
    }

    fn nghost(&self) -> i64 {
        self.0.nghost()
    }

    fn max_wave_speed(&self, data: &LevelData) -> f64 {
        let _s = span("solvers.wave_speed");
        self.0.max_wave_speed(data)
    }

    fn advance_level(&self, data: &mut LevelData, dx: f64, dt: f64) {
        let _s = span_with_work("solvers.advance", data.layout().total_cells());
        self.0.advance_level(data, dx, dt)
    }

    fn tag_cells(&self, data: &LevelData, threshold: f64) -> IntVectSet {
        let _s = span("solvers.tag");
        self.0.tag_cells(data, threshold)
    }

    fn max_dt(&self, dx: f64) -> f64 {
        self.0.max_dt(dx)
    }

    fn advance_level_capture(&self, data: &mut LevelData, dx: f64, dt: f64) -> Option<LevelFluxes> {
        let _s = span_with_work("solvers.advance", data.layout().total_cells());
        self.0.advance_level_capture(data, dx, dt)
    }
}

/// One span per line, as JSON, for offline inspection of a traced run.
/// `id` and `parent` index the spans of one episode (`run`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"work\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.run, s.work
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent: None,
            run: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_ns(&sp(10, 25), &[]), 15);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = sp(0, 10);
        // [1,4] and [3,6] overlap: together they cover [1,6].
        let (a, b) = (sp(1, 4), sp(3, 6));
        assert_eq!(self_ns(&parent, &[&a, &b]), 5);
        // Order does not matter; a nested child adds nothing.
        let c = sp(2, 3);
        assert_eq!(self_ns(&parent, &[&b, &c, &a]), 5);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = sp(0, 10);
        // [8,12] sticks out: only [8,10] is the parent's. [12,20] is outside.
        let (a, b, c) = (sp(1, 4), sp(8, 12), sp(12, 20));
        assert_eq!(self_ns(&parent, &[&a, &b, &c]), 10 - 3 - 2);
        // A child covering everything leaves no self time.
        assert_eq!(self_ns(&parent, &[&sp(0, 30)]), 0);
    }

    #[test]
    fn touching_children_merge_without_double_counting() {
        let parent = sp(0, 10);
        assert_eq!(self_ns(&parent, &[&sp(2, 5), &sp(5, 7)]), 5);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        start_run(3);
        {
            let _step = span("step");
            let _inner = span("solvers.advance");
        }
        let _outside = span("finish");
        drop(_outside);
        let spans = stop_run();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        // Off again: nothing is recorded.
        drop(span("step"));
        assert!(stop_run().is_empty());
    }
}
