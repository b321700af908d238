//! Spans the benchmark records around its own calls into the runtime.
//!
//! Workload code is generic over a [`Recorder`]. [`Off`] compiles every
//! span out, so the end-to-end runs execute no timing code at all; [`On`]
//! appends each span to the buffer of the worker that ran it. A buffer is
//! written only by its own worker thread while a dag runs and read by the
//! benchmark thread only between runs, so recording takes no lock, and a
//! buffer allocated up front makes it allocation-free.

use std::cell::UnsafeCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::{self, median};

/// What a span covers. Body kinds are the bodies the runtime executes;
/// the rest are calls a body makes into the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The root body of a dag run.
    Root,
    /// A body that ran to completion.
    Body,
    /// A strand resumption that ended by parking on an unready future.
    Park,
    /// `Ctx::spawn`.
    Spawn,
    /// A future constructor (`future`, `future_join`, `future_strand`).
    Future,
    /// `Ctx::touch`.
    Touch,
    /// `Ctx::touch_await`.
    Await,
    /// `Scope::fork`.
    Fork,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Root => "root",
            Kind::Body => "body",
            Kind::Park => "park",
            Kind::Spawn => "spawn",
            Kind::Future => "future",
            Kind::Touch => "touch",
            Kind::Await => "touch_await",
            Kind::Fork => "fork",
        }
    }

    fn is_body(self) -> bool {
        matches!(self, Kind::Root | Kind::Body | Kind::Park)
    }
}

/// Key or cause slot that names no dag object.
pub const NONE: u32 = u32::MAX;

/// One recorded span. `key` names the dag object a body produces (a
/// cell, a stage); `causes` name the objects whose completion enabled
/// this body, so the gap from their end to this start is a hand-off.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub key: u32,
    pub causes: [u32; 2],
    pub kind: Kind,
}

/// Where workload code sends its spans.
pub trait Recorder: Copy + Send + Sync + 'static {
    /// Start timestamp of a span (meaningless when spans are off).
    fn now(self) -> u64;
    /// Record the span `[start, now)` on `worker`'s buffer.
    fn span(self, worker: usize, kind: Kind, start: u64, key: u32, causes: [u32; 2]);
}

/// Spans compiled out.
#[derive(Clone, Copy)]
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn now(self) -> u64 {
        0
    }

    #[inline(always)]
    fn span(self, _: usize, _: Kind, _: u64, _: u32, _: [u32; 2]) {}
}

/// Spans recorded into the process's per-worker [`Buffers`]. Zero-sized,
/// like [`Off`], so a closure that captures it has the same size traced
/// and untraced and lands in the same (inline or boxed) body slot.
#[derive(Clone, Copy)]
pub struct On(());

static INSTALLED: OnceLock<Buffers> = OnceLock::new();

impl On {
    /// The recorder, and the buffers it fills: `workers` buffers of
    /// `capacity` spans each, allocated by the first call in the process.
    pub fn install(workers: usize, capacity: usize) -> (On, &'static Buffers) {
        (On(()), INSTALLED.get_or_init(|| Buffers::new(workers, capacity)))
    }
}

impl Recorder for On {
    #[inline]
    fn now(self) -> u64 {
        INSTALLED.get().map_or(0, Buffers::now)
    }

    #[inline]
    fn span(self, worker: usize, kind: Kind, start: u64, key: u32, causes: [u32; 2]) {
        if let Some(bufs) = INSTALLED.get() {
            bufs.push(worker, Span { start, end: bufs.now(), key, causes, kind });
        }
    }
}

#[repr(align(128))]
struct WorkerBuf {
    spans: UnsafeCell<Vec<Span>>,
    dropped: UnsafeCell<u64>,
}

/// Per-worker span buffers.
pub struct Buffers {
    epoch: Instant,
    workers: Box<[WorkerBuf]>,
}

// SAFETY: `WorkerBuf` `w` is mutated only through `Buffers::push` called
// with `worker == w`, which the workloads pass as `Ctx::worker_id()`:
// during a dag run that index belongs to exactly one pool thread. The
// benchmark thread touches the buffers only in `Buffers::take`, whose
// contract is that no dag run is in progress; `Runtime::run` joins its
// workers before returning, which orders their writes before that read.
unsafe impl Sync for Buffers {}

impl Buffers {
    /// Buffers for `workers` workers, each holding up to `capacity` spans
    /// per dag run.
    fn new(workers: usize, capacity: usize) -> Buffers {
        let workers = (0..workers)
            .map(|_| WorkerBuf {
                spans: UnsafeCell::new(Vec::with_capacity(capacity)),
                dropped: UnsafeCell::new(0),
            })
            .collect();
        Buffers { epoch: Instant::now(), workers }
    }

    /// Nanoseconds since this process's trace epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append to `worker`'s buffer, or count the span as dropped when the
    /// buffer is full (it never reallocates).
    fn push(&self, worker: usize, span: Span) {
        let buf = &self.workers[worker];
        // SAFETY: see `unsafe impl Sync for Buffers` — the calling thread
        // is the only one using worker `worker`'s buffer while a run lasts.
        let (spans, dropped) = unsafe { (&mut *buf.spans.get(), &mut *buf.dropped.get()) };
        if spans.len() < spans.capacity() {
            spans.push(span);
        } else {
            *dropped += 1;
        }
    }

    /// Move out the spans of the last run as `(worker, span)` pairs and
    /// the number of spans that did not fit, emptying the buffers.
    ///
    /// # Safety
    /// No dag run that records into these buffers may be in progress.
    pub unsafe fn take(&self) -> (Vec<(usize, Span)>, u64) {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for (w, buf) in self.workers.iter().enumerate() {
            // SAFETY: no run is in progress (caller contract), so no
            // worker thread holds a reference into this buffer.
            let (v, d) = unsafe { (&mut *buf.spans.get(), &mut *buf.dropped.get()) };
            spans.extend(v.drain(..).map(|s| (w, s)));
            dropped += std::mem::take(d);
        }
        (spans, dropped)
    }
}

/// The spans of one traced dag run plus the benchmark thread's own
/// timestamps around `Runtime::run`.
pub struct RunTrace {
    pub id: u32,
    pub run_start: u64,
    pub run_end: u64,
    pub spans: Vec<(usize, Span)>,
}

/// Per-run span metrics (see `analyse`).
pub struct SpanMetrics {
    pub spinup_us: Option<f64>,
    pub drain_us: Option<f64>,
    pub body_self_ms: f64,
    pub busy_frac: f64,
    /// Mean duration of each call kind, indexed like `CALLS`.
    pub call_ns: [Option<f64>; 4],
    pub park_to_resume_us: Option<f64>,
    pub handoff_us: Option<f64>,
}

/// Call kinds with a duration metric, and the metric's name.
pub const CALLS: [(Kind, &str); 4] = [
    (Kind::Spawn, "spdag.spawn_ns"),
    (Kind::Future, "spdag.future_ns"),
    (Kind::Touch, "spdag.touch_ns"),
    (Kind::Fork, "spdag.fork_ns"),
];

/// Reduce one run's spans to its per-layer span metrics on `workers`
/// workers.
pub fn analyse(run: &RunTrace, workers: usize) -> SpanMetrics {
    let wall = run.run_end.saturating_sub(run.run_start).max(1) as f64;
    let mut self_ns = 0u64;
    let mut busy_ns = 0u64;
    for w in 0..workers {
        let mine: Vec<&Span> =
            run.spans.iter().filter(|(sw, _)| *sw == w).map(|(_, s)| s).collect();
        let intervals: Vec<stats::Interval> = mine.iter().map(|s| (s.start, s.end)).collect();
        for (s, own) in mine.iter().zip(stats::self_times(&intervals)) {
            if s.kind.is_body() {
                self_ns += own;
                busy_ns += s.end - s.start;
            }
        }
    }
    let bodies = || run.spans.iter().map(|(_, s)| s).filter(|s| s.kind.is_body());
    let root_start = bodies().filter(|s| s.kind == Kind::Root).map(|s| s.start).min();
    let last_exit = bodies().map(|s| s.end).max();

    let mut call_ns = [None; 4];
    for (slot, (kind, _)) in call_ns.iter_mut().zip(CALLS) {
        let (total, n) = run
            .spans
            .iter()
            .filter(|(_, s)| s.kind == kind)
            .fold((0u64, 0u64), |(total, n), (_, s)| (total + (s.end - s.start), n + 1));
        *slot = (n > 0).then(|| total as f64 / n as f64);
    }

    // End of the body that completed each keyed object, and the end of
    // each object's parking resumption.
    let max_key = run.spans.iter().map(|(_, s)| s.key).filter(|&k| k != NONE).max();
    let slots = max_key.map_or(0, |k| k as usize + 1);
    let (mut done_at, mut parked_at) = (vec![None; slots], vec![None; slots]);
    for s in bodies().filter(|s| s.key != NONE) {
        match s.kind {
            Kind::Park => parked_at[s.key as usize] = Some(s.end),
            _ => done_at[s.key as usize] = Some(s.end),
        }
    }
    let mut handoffs = Vec::new();
    let mut resumes = Vec::new();
    for s in bodies().filter(|s| s.kind == Kind::Body) {
        if s.causes[0] != NONE {
            // Enabled when the last of its producers finished.
            let ready = s.causes.iter().filter(|&&c| c != NONE).try_fold(0u64, |last, &c| {
                done_at.get(c as usize).copied().flatten().map(|end| last.max(end))
            });
            if let Some(ready) = ready {
                handoffs.push(s.start.saturating_sub(ready) as f64 / 1e3);
            }
        }
        if s.key != NONE {
            if let Some(parked) = parked_at[s.key as usize] {
                resumes.push(s.start.saturating_sub(parked) as f64 / 1e3);
            }
        }
    }

    SpanMetrics {
        spinup_us: root_start.map(|r| r.saturating_sub(run.run_start) as f64 / 1e3),
        drain_us: last_exit.map(|e| run.run_end.saturating_sub(e) as f64 / 1e3),
        body_self_ms: self_ns as f64 / 1e6,
        busy_frac: busy_ns as f64 / (wall * workers as f64),
        call_ns,
        park_to_resume_us: median(&resumes),
        handoff_us: median(&handoffs),
    }
}

/// Chrome Trace Event JSON (the format Perfetto and `chrome://tracing`
/// open) of `runs`, with at most `cap` span events. Worker spans appear
/// on thread `worker`; each run's `Runtime::run` span on thread
/// `workers`. Every event carries its run id.
pub fn chrome_json(runs: &[RunTrace], workers: usize, cap: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut n = 0usize;
    let mut truncated = false;
    'runs: for run in runs {
        event(&mut out, "core.run", workers, run.run_start, run.run_end, run.id, NONE);
        for (w, s) in &run.spans {
            if n >= cap {
                truncated = true;
                break 'runs;
            }
            n += 1;
            event(&mut out, s.kind.name(), *w, s.start, s.end, run.id, s.key);
        }
    }
    let _ =
        write!(out, "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"truncated\":{truncated}}}}}");
    out
}

fn event(out: &mut String, name: &str, tid: usize, start: u64, end: u64, run: u32, key: u32) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"run\":{run}",
        start as f64 / 1e3,
        end.saturating_sub(start) as f64 / 1e3,
    );
    if key != NONE {
        let _ = write!(out, ",\"key\":{key}");
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, key: u32, causes: [u32; 2]) -> Span {
        Span { start, end, key, causes, kind }
    }

    #[test]
    fn analyse_measures_spinup_drain_handoff_and_resume() {
        let run = RunTrace {
            id: 0,
            run_start: 0,
            run_end: 10_000,
            spans: vec![
                (0, span(Kind::Future, 1_500, 1_700, NONE, [NONE; 2])),
                (0, span(Kind::Root, 1_000, 2_000, NONE, [NONE; 2])),
                (1, span(Kind::Body, 2_000, 3_000, 0, [NONE; 2])),
                (0, span(Kind::Park, 2_500, 2_600, 1, [NONE; 2])),
                (0, span(Kind::Body, 5_000, 9_000, 1, [0, NONE])),
            ],
        };
        let m = analyse(&run, 2);
        assert_eq!(m.spinup_us, Some(1.0));
        assert_eq!(m.drain_us, Some(1.0));
        assert_eq!(m.call_ns[1], Some(200.0));
        assert_eq!(m.call_ns[0], None);
        // Stage 1 parked at 2.6 µs and resumed at 5 µs; its producer
        // (key 0) ended at 3 µs.
        assert_eq!(m.park_to_resume_us, Some(2.4));
        assert_eq!(m.handoff_us, Some(2.0));
        // Bodies: 1000 + 1000 + 100 + 4000 = 6100 ns busy, 200 ns of it in
        // the future call.
        assert_eq!(m.busy_frac, 6_100.0 / 20_000.0);
        assert_eq!(m.body_self_ms, 5_900.0 / 1e6);
    }

    #[test]
    fn buffers_drop_overflow_instead_of_growing() {
        let bufs = Buffers::new(2, 2);
        for _ in 0..3 {
            let t = bufs.now();
            bufs.push(
                1,
                Span { start: t, end: bufs.now(), key: 7, causes: [NONE; 2], kind: Kind::Body },
            );
        }
        // SAFETY: no dag run uses these buffers.
        let (spans, dropped) = unsafe { bufs.take() };
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|(w, s)| *w == 1 && s.key == 7 && s.end >= s.start));
        assert_eq!(dropped, 1);
        // SAFETY: as above.
        assert_eq!(unsafe { bufs.take() }.0.len(), 0);
    }

    #[test]
    fn chrome_json_tags_runs_and_truncates() {
        let run = |id| RunTrace {
            id,
            run_start: 0,
            run_end: 5_000,
            spans: vec![(0, span(Kind::Spawn, 1_000, 1_500, NONE, [NONE; 2]))],
        };
        let json = chrome_json(&[run(0), run(1)], 2, 10);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"name\":\"spawn\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":0.500,\"args\":{\"run\":1}"));
        assert!(json.ends_with("\"truncated\":false}}"));
        assert!(chrome_json(&[run(0), run(1)], 2, 1).ends_with("\"truncated\":true}}"));
    }
}
