//! The four benchmark dags, each built only from public `dynsnzi` calls.
//!
//! A workload is generated from the seed together with its sequential
//! reference answer; the dag sees only the generated inputs. Every body
//! and every call into the runtime is wrapped in a [`Recorder`] span,
//! which compiles to nothing under [`crate::trace::Off`].

use std::sync::atomic::{AtomicU64, Ordering::*};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dynsnzi::{Ctx, DagRunStats, DynSnzi, FutureHandle, Runtime, Strand, StrandPoll, StrandTouch};

use crate::trace::{Kind, Recorder, NONE};

/// Workers of every run: the core count of the 2-vCPU machine the
/// benchmark was sized on. Fixed, so figures compare across machines.
pub const WORKERS: usize = 2;

/// Counter deltas of one dag run, with the pool statistics the runtime
/// returns from `Runtime::run` (available even with telemetry off).
pub struct Counts {
    pub snap: dynsnzi::obs::Snapshot,
    pub pool: dynsnzi::sched::PoolStats,
}

impl Counts {
    pub fn get(&self, name: &str) -> u64 {
        self.snap.counter(name)
    }
}

/// One benchmark workload.
pub trait Workload: Sync + Sized + 'static {
    /// Generate the inputs and the reference answer from `seed`.
    fn generate(seed: u64) -> Self;
    /// Input sizes, for the result's context.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// Input-defined operations one run completes.
    fn ops(&self) -> u64;
    /// Upper bound on the spans one traced run records.
    fn max_spans(&self) -> usize;
    /// Clear the outputs of the previous run.
    fn reset(&self);
    /// Execute the dag once.
    fn run<R: Recorder>(&'static self, rt: &Runtime, rec: R) -> DagRunStats;
    /// Whether the last run's outputs match the reference.
    fn check(&self) -> bool;
    /// Exact-count self-checks on one run's counter deltas: the layers
    /// this workload must exercise or bypass. Returns the violations.
    fn check_counts(&self, c: &Counts) -> Vec<String>;
}

const NO_CAUSE: [u32; 2] = [NONE, NONE];

/// SplitMix64: the input generator, and a stateless hash for payloads.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }
}

fn expect_eq(fails: &mut Vec<String>, what: &str, got: u64, want: u64) {
    if got != want {
        fails.push(format!("{what}: expected {want}, got {got}"));
    }
}

/// Every add either lands and is swept, or bounces off a sealed out-set.
fn outset_conservation(c: &Counts, fails: &mut Vec<String>) {
    let (swept, bounced) = (c.get("outset.swept"), c.get("outset.adds_bounced"));
    expect_eq(
        fails,
        "outset.adds == outset.swept + outset.adds_bounced",
        c.get("outset.adds"),
        swept + bounced,
    );
}

/// Spin until `cond` holds; a gate that never opens is a runtime bug, so
/// it panics (failing the run) instead of hanging the benchmark.
fn spin_until(mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !cond() {
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(4096) && start.elapsed() > Duration::from_secs(20) {
            panic!("gate never opened: the dag lost a dependent");
        }
    }
}

/// A per-worker accumulator slot on its own cache line.
#[repr(align(128))]
struct Slot(AtomicU64);

/// Cutoff-free `fib(n)` built only from `spawn`: every call-tree node is
/// a vertex, and leaf `i` (in left-to-right order) adds a seeded payload
/// into its worker's slot.
pub struct Fib {
    n: u32,
    seed: u64,
    /// `leaves[k]`: leaves of the call tree of `fib(k)`.
    leaves: Vec<u32>,
    expect: u64,
    acc: Vec<Slot>,
}

const FIB_N: u32 = 25;

impl Fib {
    fn payload(&self, leaf: u32) -> u64 {
        mix64(self.seed ^ u64::from(leaf))
    }

    fn node<R: Recorder>(
        &'static self,
        ctx: Ctx<'_, DynSnzi>,
        n: u32,
        lo: u32,
        kind: Kind,
        rec: R,
    ) {
        let t = rec.now();
        let w = ctx.worker_id();
        if n < 2 {
            // Each worker writes only its own slot.
            let slot = &self.acc[w].0;
            slot.store(slot.load(Relaxed).wrapping_add(self.payload(lo)), Relaxed);
        } else {
            let right_lo = lo + self.leaves[n as usize - 1];
            let ts = rec.now();
            ctx.spawn(
                move |c| self.node(c, n - 1, lo, Kind::Body, rec),
                move |c| self.node(c, n - 2, right_lo, Kind::Body, rec),
            );
            rec.span(w, Kind::Spawn, ts, NONE, NO_CAUSE);
        }
        rec.span(w, kind, t, NONE, NO_CAUSE);
    }

    fn leaf_count(&self) -> u64 {
        u64::from(self.leaves[self.n as usize])
    }
}

impl Workload for Fib {
    fn generate(seed: u64) -> Fib {
        let mut leaves = vec![1u32, 1];
        for k in 2..=FIB_N as usize {
            leaves.push(leaves[k - 1] + leaves[k - 2]);
        }
        let acc = (0..WORKERS).map(|_| Slot(AtomicU64::new(0))).collect();
        let mut fib = Fib { n: FIB_N, seed, leaves, expect: 0, acc };
        fib.expect =
            (0..fib.leaves[FIB_N as usize]).fold(0u64, |s, i| s.wrapping_add(fib.payload(i)));
        fib
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![("n", u64::from(self.n)), ("call_tree_nodes", self.ops())]
    }

    fn ops(&self) -> u64 {
        2 * self.leaf_count() - 1
    }

    fn max_spans(&self) -> usize {
        // A body span per node, a spawn span per internal node.
        (self.ops() + self.leaf_count()) as usize + 16
    }

    fn reset(&self) {
        for s in &self.acc {
            s.0.store(0, Relaxed);
        }
    }

    fn run<R: Recorder>(&'static self, rt: &Runtime, rec: R) -> DagRunStats {
        rt.run(move |ctx| self.node(ctx, self.n, 0, Kind::Root, rec))
    }

    fn check(&self) -> bool {
        self.acc.iter().fold(0u64, |s, a| s.wrapping_add(a.0.load(Relaxed))) == self.expect
    }

    fn check_counts(&self, c: &Counts) -> Vec<String> {
        let mut f = Vec::new();
        expect_eq(&mut f, "outset.created", c.get("outset.created"), 0);
        expect_eq(&mut f, "spdag.futures_created", c.get("spdag.futures_created"), 0);
        expect_eq(&mut f, "sched.suspends", c.pool.suspends, 0);
        expect_eq(
            &mut f,
            "sched.tasks == 2*spdag.spawns + 2",
            c.pool.tasks,
            2 * c.get("spdag.spawns") + 2,
        );
        outset_conservation(c, &mut f);
        f
    }
}

/// A grid of CPS futures: row 0 holds seeded values; cell `i` of stage
/// `s` joins cells `i` and `(i + k_s) mod width` of stage `s - 1`, with
/// the shift `k_s` drawn from the seed. The last row is the output.
pub struct Wavefront {
    stages: usize,
    width: usize,
    init: Vec<u64>,
    shift: Vec<usize>,
    expect: Vec<u64>,
    out: Vec<AtomicU64>,
}

const WAVE_STAGES: usize = 32;
const WAVE_WIDTH: usize = 256;

fn combine(a: u64, b: u64, stage: usize) -> u64 {
    (a ^ b.rotate_left(17)).wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(stage as u64)
}

impl Wavefront {
    fn key(&self, stage: usize, i: usize) -> u32 {
        (stage * self.width + i) as u32
    }

    /// The second input of cell `i` of stage `s`.
    fn partner(&self, s: usize, i: usize) -> usize {
        (i + self.shift[s]) % self.width
    }

    fn root<R: Recorder>(&'static self, mut ctx: Ctx<'_, DynSnzi>, rec: R) {
        let t = rec.now();
        let w = ctx.worker_id();
        let mut row: Vec<FutureHandle<u64>> = Vec::with_capacity(self.width);
        for i in 0..self.width {
            let tf = rec.now();
            row.push(ctx.future(move |c| {
                let t = rec.now();
                let v = self.init[i];
                rec.span(c.worker_id(), Kind::Body, t, self.key(0, i), NO_CAUSE);
                v
            }));
            rec.span(w, Kind::Future, tf, NONE, NO_CAUSE);
        }
        for s in 1..self.stages {
            let mut next = Vec::with_capacity(self.width);
            for i in 0..self.width {
                let j = self.partner(s, i);
                let cell = self.key(s, i);
                let tf = rec.now();
                // Captures 16 bytes, so with `future_join`'s own captures
                // the body still fits the vertex's inline slot.
                next.push(ctx.future_join(&row[i], &row[j], move |c, a, b| {
                    let t = rec.now();
                    let (s, i) = (cell as usize / self.width, cell as usize % self.width);
                    let v = combine(*a, *b, s);
                    let causes = [self.key(s - 1, i), self.key(s - 1, self.partner(s, i))];
                    rec.span(c.worker_id(), Kind::Body, t, cell, causes);
                    v
                }));
                rec.span(w, Kind::Future, tf, NONE, NO_CAUSE);
            }
            row = next;
        }
        let last = self.stages - 1;
        for (i, cell) in row.into_iter().enumerate() {
            let tf = rec.now();
            ctx.fork(move |c| {
                let t = rec.now();
                let w = c.worker_id();
                c.touch(&cell, move |c2, v| {
                    let t2 = rec.now();
                    self.out[i].store(*v, Relaxed);
                    rec.span(c2.worker_id(), Kind::Body, t2, NONE, [self.key(last, i), NONE]);
                });
                rec.span(w, Kind::Touch, t, NONE, NO_CAUSE);
                rec.span(w, Kind::Body, t, NONE, NO_CAUSE);
            });
            rec.span(w, Kind::Fork, tf, NONE, NO_CAUSE);
        }
        rec.span(w, Kind::Root, t, NONE, NO_CAUSE);
    }
}

impl Workload for Wavefront {
    fn generate(seed: u64) -> Wavefront {
        let mut rng = Rng(seed);
        let (stages, width) = (WAVE_STAGES, WAVE_WIDTH);
        let init: Vec<u64> = (0..width).map(|_| rng.next()).collect();
        // Shift 0 would join a cell with itself; any other shift mixes
        // cells that different workers may have produced.
        let shift: Vec<usize> =
            (0..stages).map(|_| 1 + (rng.next() % (width as u64 - 1)) as usize).collect();
        let mut row = init.clone();
        for (s, &k) in shift.iter().enumerate().skip(1) {
            row = (0..width).map(|i| combine(row[i], row[(i + k) % width], s)).collect();
        }
        let out = (0..width).map(|_| AtomicU64::new(0)).collect();
        Wavefront { stages, width, init, shift, expect: row, out }
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![("stages", self.stages as u64), ("width", self.width as u64)]
    }

    fn ops(&self) -> u64 {
        (self.stages * self.width) as u64
    }

    fn max_spans(&self) -> usize {
        // Per cell a future call and a body; per sink a fork, a body, a
        // touch and a continuation.
        2 * self.stages * self.width + 4 * self.width + 16
    }

    fn reset(&self) {
        for o in &self.out {
            o.store(0, Relaxed);
        }
    }

    fn run<R: Recorder>(&'static self, rt: &Runtime, rec: R) -> DagRunStats {
        rt.run(move |ctx| self.root(ctx, rec))
    }

    fn check(&self) -> bool {
        self.out.iter().zip(&self.expect).all(|(o, &e)| o.load(Relaxed) == e)
    }

    fn check_counts(&self, c: &Counts) -> Vec<String> {
        let mut f = Vec::new();
        let cells = (self.stages * self.width) as u64;
        expect_eq(&mut f, "spdag.futures_created", c.get("spdag.futures_created"), cells);
        expect_eq(&mut f, "outset.created", c.get("outset.created"), cells);
        outset_conservation(c, &mut f);
        f
    }
}

/// One hub future with `n` CPS dependents, half forked by the root and
/// half by a forked task the other worker picks up. The hub completes
/// only after every dependent's add has landed, so all of them are
/// delivered by one sweep; dependent `i` stores a value derived from the
/// hub's value and its own seeded salt.
pub struct Fanout {
    n: usize,
    hub_value: u64,
    salt: Vec<u64>,
    expect: Vec<u64>,
    landed: AtomicU64,
    slots: Vec<AtomicU64>,
    /// Hands the hub to the forker of the second half of the dependents.
    hub: Mutex<Option<FutureHandle<u64>>>,
}

const FANOUT_N: usize = 20_000;

fn deliver(hub: u64, salt: u64) -> u64 {
    // Never 0, so an undelivered (cleared) slot always fails the check.
    mix64(hub ^ salt) | 1
}

impl Fanout {
    fn root<R: Recorder>(&'static self, mut ctx: Ctx<'_, DynSnzi>, rec: R) {
        let t = rec.now();
        let w = ctx.worker_id();
        // The second half's forker goes first, before the hub exists: the
        // idle worker steals it (the oldest task) and adds from its own
        // deque, while the hub body, pushed next, sits below this
        // worker's dependents. So neither worker spins on the hub's gate
        // before its own share of adds is done.
        let tf = rec.now();
        ctx.fork(move |mut c| {
            let t = rec.now();
            let mut hub = None;
            spin_until(|| {
                hub = self.hub.lock().expect("hub slot poisoned").take();
                hub.is_some()
            });
            let hub = hub.expect("spun until published");
            for i in self.n / 2..self.n {
                self.fork_dependent(&mut c, &hub, i, rec);
            }
            rec.span(c.worker_id(), Kind::Body, t, NONE, NO_CAUSE);
        });
        rec.span(w, Kind::Fork, tf, NONE, NO_CAUSE);
        let tf = rec.now();
        let hub = ctx.future(move |c| {
            let t = rec.now();
            spin_until(|| self.landed.load(Acquire) == self.n as u64);
            rec.span(c.worker_id(), Kind::Body, t, 0, NO_CAUSE);
            self.hub_value
        });
        rec.span(w, Kind::Future, tf, NONE, NO_CAUSE);
        *self.hub.lock().expect("hub slot poisoned") = Some(hub.clone());
        for i in 0..self.n / 2 {
            self.fork_dependent(&mut ctx, &hub, i, rec);
        }
        rec.span(w, Kind::Root, t, NONE, NO_CAUSE);
    }

    fn fork_dependent<R: Recorder>(
        &'static self,
        ctx: &mut Ctx<'_, DynSnzi>,
        hub: &FutureHandle<u64>,
        i: usize,
        rec: R,
    ) {
        let hub = hub.clone();
        let tf = rec.now();
        ctx.fork(move |c| {
            let t = rec.now();
            let w = c.worker_id();
            c.touch(&hub, move |c2, v| {
                let t2 = rec.now();
                self.slots[i].store(deliver(*v, self.salt[i]), Relaxed);
                rec.span(c2.worker_id(), Kind::Body, t2, NONE, [0, NONE]);
            });
            rec.span(w, Kind::Touch, t, NONE, NO_CAUSE);
            // The add has landed once `touch` returns.
            self.landed.fetch_add(1, Release);
            rec.span(w, Kind::Body, t, NONE, NO_CAUSE);
        });
        rec.span(ctx.worker_id(), Kind::Fork, tf, NONE, NO_CAUSE);
    }
}

impl Workload for Fanout {
    fn generate(seed: u64) -> Fanout {
        let mut rng = Rng(seed);
        let n = FANOUT_N;
        let hub_value = rng.next();
        let salt: Vec<u64> = (0..n).map(|_| rng.next()).collect();
        let expect = salt.iter().map(|&s| deliver(hub_value, s)).collect();
        let slots = (0..n).map(|_| AtomicU64::new(0)).collect();
        Fanout {
            n,
            hub_value,
            salt,
            expect,
            landed: AtomicU64::new(0),
            slots,
            hub: Mutex::new(None),
        }
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![("dependents", self.n as u64)]
    }

    fn ops(&self) -> u64 {
        self.n as u64
    }

    fn max_spans(&self) -> usize {
        4 * self.n + 16
    }

    fn reset(&self) {
        self.landed.store(0, Relaxed);
        for s in &self.slots {
            s.store(0, Relaxed);
        }
    }

    fn run<R: Recorder>(&'static self, rt: &Runtime, rec: R) -> DagRunStats {
        rt.run(move |ctx| self.root(ctx, rec))
    }

    fn check(&self) -> bool {
        self.slots.iter().zip(&self.expect).all(|(s, &e)| s.load(Relaxed) == e)
    }

    fn check_counts(&self, c: &Counts) -> Vec<String> {
        let mut f = Vec::new();
        expect_eq(&mut f, "outset.created", c.get("outset.created"), 1);
        outset_conservation(c, &mut f);
        f
    }
}

/// A serial chain of `depth` blocking strands: stage `k` awaits stage
/// `k - 1` and folds in its seeded increment. The head future opens only
/// after every stage has parked, so each stage parks exactly once and is
/// resumed by its predecessor's fulfil sweep.
pub struct AwaitChain {
    depth: usize,
    inc: Vec<u64>,
    expect: u64,
    parked: AtomicU64,
    out: AtomicU64,
}

const CHAIN_DEPTH: usize = 8_000;

fn fold(acc: u64, inc: u64) -> u64 {
    acc.rotate_left(7) ^ inc
}

struct Stage<R> {
    prev: FutureHandle<u64>,
    chain: &'static AwaitChain,
    k: u32,
    rec: R,
}

impl<R: Recorder> Strand<DynSnzi, u64> for Stage<R> {
    fn resume(&mut self, c: &mut Ctx<'_, DynSnzi>) -> StrandPoll<u64> {
        let (rec, k) = (self.rec, self.k);
        let t = rec.now();
        let w = c.worker_id();
        // `strand_await!` spelled out: the park must be counted after the
        // registration, which the macro's early return would skip.
        let ta = rec.now();
        let touched = c.touch_await(&self.prev);
        rec.span(w, Kind::Await, ta, NONE, NO_CAUSE);
        match touched {
            StrandTouch::Ready(v) => {
                let v = fold(*v, self.chain.inc[k as usize]);
                rec.span(w, Kind::Body, t, k, [k - 1, NONE]);
                StrandPoll::Done(v)
            }
            StrandTouch::Parked => {
                rec.span(w, Kind::Park, t, k, NO_CAUSE);
                self.chain.parked.fetch_add(1, Release);
                StrandPoll::Parked
            }
        }
    }
}

impl AwaitChain {
    fn root<R: Recorder>(&'static self, mut ctx: Ctx<'_, DynSnzi>, rec: R) {
        let t = rec.now();
        let w = ctx.worker_id();
        let tf = rec.now();
        let mut prev = ctx.future(move |c| {
            let t = rec.now();
            spin_until(|| self.parked.load(Acquire) == self.depth as u64);
            rec.span(c.worker_id(), Kind::Body, t, 0, NO_CAUSE);
            self.inc[0]
        });
        rec.span(w, Kind::Future, tf, NONE, NO_CAUSE);
        for k in 1..=self.depth as u32 {
            let tf = rec.now();
            prev = ctx.future_strand(Stage { prev, chain: self, k, rec });
            rec.span(w, Kind::Future, tf, NONE, NO_CAUSE);
        }
        let last = self.depth as u32;
        let tt = rec.now();
        ctx.touch(&prev, move |c, v| {
            let t = rec.now();
            self.out.store(*v, Relaxed);
            rec.span(c.worker_id(), Kind::Body, t, NONE, [last, NONE]);
        });
        rec.span(w, Kind::Touch, tt, NONE, NO_CAUSE);
        rec.span(w, Kind::Root, t, NONE, NO_CAUSE);
    }
}

impl Workload for AwaitChain {
    fn generate(seed: u64) -> AwaitChain {
        let mut rng = Rng(seed);
        let depth = CHAIN_DEPTH;
        let inc: Vec<u64> = (0..=depth).map(|_| rng.next()).collect();
        let expect = inc[1..].iter().fold(inc[0], |acc, &i| fold(acc, i));
        AwaitChain { depth, inc, expect, parked: AtomicU64::new(0), out: AtomicU64::new(0) }
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![("depth", self.depth as u64)]
    }

    fn ops(&self) -> u64 {
        self.depth as u64
    }

    fn max_spans(&self) -> usize {
        // Per stage: a future call, a parking resumption and a completing
        // one, each with its touch_await.
        5 * self.depth + 16
    }

    fn reset(&self) {
        self.parked.store(0, Relaxed);
        self.out.store(0, Relaxed);
    }

    fn run<R: Recorder>(&'static self, rt: &Runtime, rec: R) -> DagRunStats {
        rt.run(move |ctx| self.root(ctx, rec))
    }

    fn check(&self) -> bool {
        self.out.load(Relaxed) == self.expect
    }

    fn check_counts(&self, c: &Counts) -> Vec<String> {
        let mut f = Vec::new();
        expect_eq(&mut f, "sched.suspends == sched.resumes", c.pool.suspends, c.pool.resumes);
        expect_eq(&mut f, "spdag.touch_awaits", c.get("spdag.touch_awaits"), self.depth as u64);
        outset_conservation(c, &mut f);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Off, On};

    fn runs_and_checks<W: Workload>(seed: u64) {
        let wl: &'static W = Box::leak(Box::new(W::generate(seed)));
        let rt = Runtime::new().workers(WORKERS);
        wl.reset();
        wl.run(&rt, Off);
        assert!(wl.check(), "untraced run");
        let (on, bufs) = On::install(WORKERS, 1 << 20);
        wl.reset();
        wl.run(&rt, on);
        assert!(wl.check(), "traced run");
        // SAFETY: the run above has returned.
        let (spans, dropped) = unsafe { bufs.take() };
        assert_eq!(dropped, 0);
        assert!(spans.len() <= wl.max_spans());
        assert!(spans.iter().any(|(_, s)| s.kind == Kind::Root));
    }

    #[test]
    fn every_workload_matches_its_reference() {
        runs_and_checks::<Fib>(7);
        runs_and_checks::<Wavefront>(7);
        runs_and_checks::<Fanout>(7);
        runs_and_checks::<AwaitChain>(7);
    }

    #[test]
    fn seeds_change_inputs_and_references() {
        assert_ne!(Fib::generate(1).expect, Fib::generate(2).expect);
        assert_ne!(Wavefront::generate(1).expect, Wavefront::generate(2).expect);
        assert_ne!(AwaitChain::generate(1).expect, AwaitChain::generate(2).expect);
        assert_eq!(Fanout::generate(3).expect, Fanout::generate(3).expect);
    }
}
