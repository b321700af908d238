//! Dag construction and execution (the paper's Figure 3 operations and the
//! scheduler glue).
//!
//! The paper presents `make`, `new_vertex`, `chain`, `spawn` and `signal`
//! as operations on a mutable dag; here they appear in the closure-passing
//! form natural to Rust:
//!
//! * [`run_dag`] is `make` + `Scheduler.initialize` + the add/execute loop:
//!   it builds the root and final vertices and drives the pool until the
//!   final vertex runs.
//! * [`Ctx::spawn`] and [`Ctx::chain`] are `spawn`/`chain`; they take the
//!   children's bodies directly instead of returning raw vertices (the
//!   paper's two-phase "create, then assign `body`" is an artifact of its
//!   pseudocode language — the handle discipline is identical).
//! * `signal` is implicit: when a body returns without having spawned or
//!   chained, the executor claims a decrement handle and decrements the
//!   finish vertex's counter; a `true` return (counter hit zero) schedules
//!   the finish vertex. This is the paper's implementation note that
//!   readiness detection rides on `snzi_depart`'s return value.

use std::time::{Duration, Instant};

use incounter::{CounterFamily, DecPair};
use sched::{PoolArc, PoolStats, Termination, WorkerCtx};

use crate::vertex::{Body, BodySlot, Strand, StrandPoll, TakenBody, Vertex, VertexPtr};

/// Per-body execution context: the running vertex plus scheduler access.
///
/// `Ctx` is consumed by [`spawn`](Ctx::spawn)/[`chain`](Ctx::chain), making
/// "spawn/chain must be the last dag operation of a body" (the paper's
/// protocol) a compile-time property.
pub struct Ctx<'a, C: CounterFamily> {
    /// The running vertex. Exclusive: the executor owns the vertex while
    /// its body runs, which is what lets `Scope::fork` rotate handles.
    pub(crate) vertex: &'a mut Vertex<C>,
    pub(crate) worker: &'a WorkerCtx<'a, VertexPtr<C>>,
    pub(crate) cfg: &'a C::Config,
    /// `true` only when the executor is running a resumable strand frame
    /// (the `TakenBody::Strand` arm). Gates [`arm_park`](Ctx::arm_park):
    /// a one-shot body has no frame to park, so letting it register on an
    /// out-set would retire the vertex with the registration still armed —
    /// a use-after-free in waiting. The gate turns that into an immediate
    /// panic before anything is registered.
    pub(crate) resumable: bool,
}

impl<'a, C: CounterFamily> Ctx<'a, C> {
    /// Index of the worker executing this body.
    pub fn worker_id(&self) -> usize {
        self.worker.worker_id()
    }

    /// Number of workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.worker.num_workers()
    }

    /// One uniform 64-bit value from the executing worker's private
    /// stream (distinct workers are seeded apart, so concurrent bodies
    /// never share generator state). Deterministic per worker given the
    /// pool's seed — stress tests use this instead of ambient entropy so
    /// a failing interleaving can be re-run.
    pub fn rng_u64(&self) -> u64 {
        self.worker.rng_u64()
    }

    pub(crate) fn vertex_ref(&self) -> &Vertex<C> {
        self.vertex
    }

    /// Arm the count-2 park handshake on the running vertex (the
    /// [`touch_await`](Ctx::touch_await) protocol, exposed to the async
    /// bridge which registers the token itself). Returns the out-set
    /// registration token: the vertex address.
    pub(crate) fn arm_park(&mut self) -> u64 {
        assert!(
            self.resumable,
            "touch_await outside a strand resumption: only resumable strand bodies \
             (fork_strand/future_strand/fork_async and friends) can park; a one-shot \
             body has no frame to resume"
        );
        let cfg = self.cfg;
        let u = self.vertex_mut();
        debug_assert!(!u.park_pending, "park armed twice in one resumption");
        u.counter = Some(C::make(cfg, 2));
        u.park_pending = true;
        u as *mut Vertex<C> as usize as u64
    }

    /// Undo [`arm_park`](Ctx::arm_park) after a bounced registration (the
    /// future sealed first — no fulfiller decrement will ever come).
    pub(crate) fn disarm_park(&mut self) {
        let u = self.vertex_mut();
        debug_assert!(u.park_pending, "disarm without a pending park");
        u.counter = None;
        u.park_pending = false;
    }

    pub(crate) fn vertex_mut(&mut self) -> &mut Vertex<C> {
        self.vertex
    }

    /// Parallel composition (the paper's `spawn`; equivalently `async
    /// left` with continuation `right`). Creates two vertices that may run
    /// concurrently; the enclosing finish scope waits for both. The
    /// current vertex dies — it does not signal.
    pub fn spawn(
        self,
        left: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        right: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        // Straight to BodySlot (not through Box) so small captures land
        // inline in the child vertices.
        self.spawn_slots(BodySlot::from_closure(left), BodySlot::from_closure(right));
    }

    /// Monomorphisation-friendly version of [`spawn`](Ctx::spawn).
    pub fn spawn_boxed(self, left: Body<C>, right: Body<C>) {
        self.spawn_slots(BodySlot::from_boxed(left), BodySlot::from_boxed(right));
    }

    fn spawn_slots(self, left: BodySlot<C>, right: BodySlot<C>) {
        let u = self.vertex;
        // SAFETY: `fin` is alive — this vertex is an unfinished strand of
        // `fin`'s scope, so `fin`'s counter cannot have reached zero.
        let fin_ref = unsafe { &*u.fin };
        let fc = fin_ref.counter_ref();
        // The vertex address serves as the placement key for hashed
        // families; it is unique among live vertices and free to compute.
        let vid = u as *const Vertex<C> as u64;
        obs::counter!("spdag.spawns").inc();
        obs::trace::record(obs::EventKind::Spawn, vid);
        // Figure 5: grow + arrive first ...
        // SAFETY: `u.inc` points into `fc` by construction; validity is
        // the sp-dag discipline itself.
        let (d2, i1, i2) = unsafe { C::increment(self.cfg, fc, u.inc, u.is_left, vid) };
        // ... and only then claim the inherited handle (ordering invariant:
        // the first handle of the new pair is the higher one).
        let d1 = u.dec.claim();
        let pair = PoolArc::new(C::make_pair(self.cfg, d1, d2));
        let v = Vertex::alloc(self.cfg, 0, i1, pair.clone(), u.fin, true, left);
        let w = Vertex::alloc(self.cfg, 0, i2, pair, u.fin, false, right);
        u.dead = true;
        self.worker.push(VertexPtr(v));
        self.worker.push(VertexPtr(w));
    }

    /// Serial composition (the paper's `chain`; equivalently `finish {
    /// first }` followed by `then`). `then` runs only after `first` and
    /// everything it transitively spawns have finished. The current vertex
    /// dies — `then` inherits its handles and obligations.
    pub fn chain(
        self,
        first: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        then: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        self.chain_slots(BodySlot::from_closure(first), BodySlot::from_closure(then));
    }

    /// Monomorphisation-friendly version of [`chain`](Ctx::chain).
    pub fn chain_boxed(self, first: Body<C>, then: Body<C>) {
        self.chain_slots(BodySlot::from_boxed(first), BodySlot::from_boxed(then));
    }

    /// `async body` into the enclosing finish scope without consuming the
    /// context (the [`Scope`](crate::Scope) fork, available directly):
    /// the task may run in parallel with the rest of this body, and the
    /// enclosing finish waits for it. Strand bodies use this to fan out
    /// mid-resumption — a strand only ever holds `&mut Ctx`, so the
    /// consuming [`spawn`](Ctx::spawn)/[`chain`](Ctx::chain) are off
    /// limits to it by construction.
    pub fn fork(&mut self, body: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static) {
        self.fork_slot(BodySlot::from_closure(body));
    }

    /// [`fork`](Ctx::fork) a *resumable strand*: the child may
    /// [`touch_await`](Ctx::touch_await) futures mid-body, parking itself
    /// (never its worker) until they fulfill.
    pub fn fork_strand<S: Strand<C>>(&mut self, strand: S) {
        self.fork_slot(BodySlot::from_strand(strand));
    }

    pub(crate) fn fork_slot(&mut self, body: BodySlot<C>) {
        let (cfg, worker) = (self.cfg, self.worker);
        let u = self.vertex_mut();
        // One increment, then rotate this vertex onto the right-hand
        // handles (Vertex::fork_rotate); the forked task is the left
        // child, ready immediately.
        let fin = u.fin;
        let (i1, pair) = u.fork_rotate(cfg);
        let v = Vertex::alloc(cfg, 0, i1, pair, fin, true, body);
        worker.push(VertexPtr(v));
    }

    fn chain_slots(self, first: BodySlot<C>, then: BodySlot<C>) {
        let u = self.vertex;
        obs::counter!("spdag.chains").inc();
        obs::trace::record(obs::EventKind::Chain, u as *const Vertex<C> as u64);
        // w: the new finish vertex; takes over u's position in u's scope
        // (inherits fin, inc, dec pair and left/right position) and waits
        // on one dependency — the completion of `first`'s subtree.
        let w_ptr = Vertex::alloc(self.cfg, 1, u.inc, u.dec.clone(), u.fin, u.is_left, then);
        // SAFETY: just created, uniquely owned until scheduled; shared
        // references derived here point at the stable slab allocation.
        let wc = unsafe { (*w_ptr).counter_ref() };
        let h_dec = C::root_dec(wc);
        let v = Vertex::alloc(
            self.cfg,
            0,
            C::root_inc(wc),
            PoolArc::new(DecPair::new(h_dec, h_dec)),
            w_ptr,
            true,
            first,
        );
        u.dead = true;
        // v is ready (no dependencies); w waits for the signal that zeroes
        // its counter — nobody pushes it until then.
        self.worker.push(VertexPtr(v));
    }
}

/// Exclusive ownership of a scheduled vertex for the duration of its
/// execution; retires the vertex (drop glue + slab recycling) on every
/// exit path.
struct OwnedVertex<C: CounterFamily>(*mut Vertex<C>);

impl<C: CounterFamily> std::ops::Deref for OwnedVertex<C> {
    type Target = Vertex<C>;
    fn deref(&self) -> &Vertex<C> {
        // SAFETY: the executor holds the vertex exclusively (dag
        // discipline: each pointer is handed to exactly one executor).
        unsafe { &*self.0 }
    }
}

impl<C: CounterFamily> std::ops::DerefMut for OwnedVertex<C> {
    fn deref_mut(&mut self) -> &mut Vertex<C> {
        // SAFETY: as for Deref — exclusive ownership.
        unsafe { &mut *self.0 }
    }
}

impl<C: CounterFamily> Drop for OwnedVertex<C> {
    fn drop(&mut self) {
        // SAFETY: we are the single executor and nothing uses the vertex
        // after this point (fin was pushed by pointer, not reference,
        // and fin is a *different* vertex).
        unsafe { Vertex::retire(self.0) };
    }
}

/// How one body dispatch ended (the value that crosses the
/// `catch_unwind` boundary in `execute_vertex`): the body ran to its end
/// — completed, spawned, chained, or misbehaved, all settled by the
/// epilogue — or a strand asked to park, handing its frame back for the
/// commit.
enum BodyOutcome<C: CounterFamily> {
    Ran,
    Parked(crate::vertex::StrandFrame<C>),
}

/// Execute one vertex: run its body, then — unless the body ended with a
/// spawn/chain, or parked itself on a future — signal the finish vertex
/// (the paper's `signal`).
fn execute_vertex<C: CounterFamily>(
    cfg: &C::Config,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    ptr: VertexPtr<C>,
) {
    // The dag hands each vertex pointer to exactly one executor; the
    // guard takes back the ownership that `spawn`/`chain`/`run_dag`
    // leaked and retires the vertex when it drops.
    let mut v = OwnedVertex(ptr.0);
    if v.park_pending {
        // This schedule is a *resumption*: a previous executor parked the
        // strand on a future's out-set and the fulfill handshake zeroed
        // the vertex's park counter. The flag survived the park precisely
        // so this entry check can tell resumptions from first runs.
        v.park_pending = false;
        worker.note_resume();
        obs::counter!("spdag.strand_resume").inc();
    }
    // The body runs inside `catch_unwind`: one panicking body must not
    // unwind into the worker loop (stranding siblings on a termination
    // count that never arrives) and must not skip the signal epilogue —
    // the dag keeps draining structurally, the pool terminates through
    // the normal final-vertex path, and `sched::run` re-raises the first
    // captured payload at the caller. `docs/robustness.md` walks the
    // state machine.
    let body = v.body.take();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if sched::failpoint::fire("spdag.panic_vertex") {
            panic!("failpoint: spdag.panic_vertex injected a body panic");
        }
        match body {
            None => BodyOutcome::Ran,
            Some(TakenBody::Boxed(body)) => {
                body(Ctx { vertex: &mut v, worker, cfg, resumable: false });
                BodyOutcome::Ran
            }
            Some(TakenBody::Inline(body)) => {
                body.invoke(Ctx { vertex: &mut v, worker, cfg, resumable: false });
                BodyOutcome::Ran
            }
            Some(TakenBody::Strand(mut frame)) => {
                let poll = {
                    let mut ctx = Ctx { vertex: &mut v, worker, cfg, resumable: true };
                    frame.resume(&mut ctx)
                };
                match poll {
                    StrandPoll::Done(()) => {
                        // A leftover armed park (Done after a Parked
                        // touch_await) is caught by the epilogue check
                        // below, which every non-parking exit path
                        // funnels through. Frame drops here; fall through
                        // to the signal epilogue like any completed body.
                        BodyOutcome::Ran
                    }
                    StrandPoll::Parked => BodyOutcome::Parked(frame),
                }
            }
        }
    }));
    match outcome {
        Ok(BodyOutcome::Ran) => {}
        Ok(BodyOutcome::Parked(frame)) => {
            assert!(
                v.park_pending,
                "strand returned Parked without a parked touch_await \
                 (nothing would ever resume it)"
            );
            // Commit the park. The frame goes back into the
            // vertex, then we release our half of the count-2
            // handshake touch_await armed: one decrement belongs
            // to the fulfiller's sweep, one to us, and whoever
            // lands second zeroes the counter and reschedules
            // the vertex. Decrement-last makes every field write
            // above it visible to the resuming executor through
            // the counter's release/acquire edge — after our
            // decrement we own nothing.
            v.body = BodySlot::Strand(frame);
            worker.note_suspend();
            obs::counter!("spdag.strand_suspend").inc();
            obs::trace::record(obs::EventKind::StrandPark, v.0 as u64);
            let vp = v.0;
            std::mem::forget(v); // ownership parks with the vertex
                                 // SAFETY: touch_await installed the count-2 counter
                                 // and registered exactly one out-set waker; this is
                                 // the executor's single matching decrement.
            if unsafe { crate::futures::resolve_dependent::<C>(vp) } {
                worker.push(VertexPtr(vp));
            }
            return;
        }
        Err(payload) => {
            obs::counter!("spdag.body_panics").inc();
            worker.record_panic(payload);
            if v.park_pending {
                // The body panicked *after* a Parked touch_await
                // registered this vertex on a future's out-set (user code
                // only regains control once the registration is in; see
                // docs/robustness.md for the window argument). The
                // fulfill side holds the other half of the count-2
                // handshake and will deliver to this address, so the
                // vertex must stay alive: commit the park exactly as the
                // Parked arm does, but with an empty body — the frame
                // already dropped during the unwind, releasing its slab
                // through the normal StrandFrame path. The resumption
                // finds BodySlot::None, runs nothing, and falls through
                // to the signal epilogue, so the scope still drains.
                worker.note_suspend();
                obs::counter!("spdag.strand_suspend").inc();
                obs::trace::record(obs::EventKind::StrandPark, v.0 as u64);
                let vp = v.0;
                std::mem::forget(v);
                // SAFETY: as in the Parked commit — the armed count-2
                // counter is in place and exactly one out-set waker holds
                // the other decrement.
                if unsafe { crate::futures::resolve_dependent::<C>(vp) } {
                    worker.push(VertexPtr(vp));
                }
                return;
            }
            // Fall through to the signal epilogue: a panicked vertex
            // still signals fin (its children, if any spawn/chain landed
            // before the panic, are already scheduled and carry their own
            // obligations), so the enclosing scope drains to the final
            // vertex and conservation holds with zero leaked vertices.
        }
    }
    if v.park_pending {
        // A touch_await armed this vertex on a future's out-set, yet the
        // body ended without committing the park (a strand that claimed
        // Done after a Parked touch). The registration will fire into
        // whatever the slab becomes; retiring — or even signalling fin —
        // would be a use-after-free in waiting, so leak the vertex and
        // fail loudly. Checked before the `dead` early-return so a body
        // that parked and then spawned/chained cannot slip through.
        std::mem::forget(v);
        panic!("body ended with a parked touch_await still armed (strand returned Done?)");
    }
    if v.dead {
        return; // continuation took over this vertex's obligations
    }
    if v.fin.is_null() {
        // The final vertex of the dag: the whole computation is done.
        worker.finish();
        return;
    }
    // SAFETY: fin outlives all vertices of its scope (module docs).
    let fin_ref = unsafe { &*v.fin };
    let d = v.dec.claim();
    // SAFETY: `d` was produced by an increment on `fin`'s counter (or is
    // its root handle matching the initial count) and is consumed exactly
    // once — the claim protocol's guarantee.
    let ready = unsafe { C::decrement(fin_ref.counter_ref(), d) };
    if ready {
        worker.push(VertexPtr(v.fin as *mut Vertex<C>));
    }
}

/// Statistics from one dag execution.
#[derive(Debug, Clone, Default)]
pub struct DagRunStats {
    /// Scheduler statistics (tasks = vertices executed, steals, parks).
    pub pool: PoolStats,
    /// Wall-clock time of the parallel phase (pool spin-up included).
    pub elapsed: Duration,
}

/// Build an sp-dag with the given root body and execute it to completion
/// on `workers` workers (the paper's `make` + scheduling loop).
///
/// Returns when the dag's final vertex — which every strand transitively
/// synchronises with — has executed.
pub fn run_dag<C, F>(cfg: C::Config, workers: usize, root: F) -> DagRunStats
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    run_dag_slot::<C>(cfg, workers, BodySlot::from_closure(root))
}

/// As [`run_dag`], with a pre-boxed body.
pub fn run_dag_boxed<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    root: Body<C>,
) -> DagRunStats {
    run_dag_slot::<C>(cfg, workers, BodySlot::from_boxed(root))
}

/// As [`run_dag`], with a [`sched::WatchdogCfg`] stall monitor attached:
/// if no vertex executes for the configured timeout while the dag is
/// unfinished, the watchdog dumps queue/counter/trace diagnostics and
/// fails the run with that report instead of hanging (see
/// `docs/robustness.md` for the report format). Tests and the bench
/// harness use this so a reintroduced lost-wakeup or leaked-dependency
/// bug dies in seconds, not a CI timeout.
pub fn run_dag_watched<C, F>(
    cfg: C::Config,
    workers: usize,
    watchdog: sched::WatchdogCfg,
    root: F,
) -> DagRunStats
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    run_dag_inner::<C>(cfg, workers, Some(watchdog), BodySlot::from_closure(root))
}

fn run_dag_slot<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    root: BodySlot<C>,
) -> DagRunStats {
    run_dag_inner::<C>(cfg, workers, None, root)
}

fn run_dag_inner<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    watchdog: Option<sched::WatchdogCfg>,
    root: BodySlot<C>,
) -> DagRunStats {
    // Final vertex z: one dependency (the root strand), no finish of its
    // own. Its handles are placeholders aimed at its own counter; they are
    // never used because fin == null short-circuits signalling.
    let z_ptr = {
        let counter = C::make(&cfg, 1);
        let inc = C::root_inc(&counter);
        let dec = C::root_dec(&counter);
        Vertex::<C>::alloc_parts(
            Some(counter),
            inc,
            PoolArc::new(DecPair::new(dec, dec)),
            std::ptr::null(),
            true,
            BodySlot::None,
        )
    };
    // Root vertex u: ready immediately; signals z when its whole subtree
    // is done.
    // SAFETY: z_ptr was just allocated and stays alive until its executor
    // retires it, strictly after u's scope completes.
    let zc = unsafe { (*z_ptr).counter_ref() };
    let z_dec = C::root_dec(zc);
    let u = Vertex::alloc(
        &cfg,
        0,
        C::root_inc(zc),
        PoolArc::new(DecPair::new(z_dec, z_dec)),
        z_ptr,
        true,
        root,
    );
    let start = Instant::now();
    let cfg_ref = &cfg;
    let interp =
        move |worker: &WorkerCtx<'_, VertexPtr<C>>, ptr| execute_vertex::<C>(cfg_ref, worker, ptr);
    let roots = vec![VertexPtr(u)];
    let pool = match watchdog {
        None => sched::run(workers, roots, Termination::DoneFlag, interp),
        Some(w) => sched::run_watched(workers, roots, Termination::DoneFlag, w, interp),
    };
    DagRunStats { pool, elapsed: start.elapsed() }
}

/// As [`run_dag`] but returning only the elapsed wall-clock time — the
/// benchmark harness's entry point.
pub fn run_dag_timed<C, F>(cfg: C::Config, workers: usize, root: F) -> Duration
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    run_dag::<C, F>(cfg, workers, root).elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counter_pair() -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        let a = Arc::new(AtomicU64::new(0));
        (Arc::clone(&a), a)
    }

    #[test]
    fn empty_root_completes() {
        for workers in [1, 2, 4] {
            let stats = run_dag::<DynSnzi, _>(DynConfig::always_grow(), workers, |_| {});
            // Root + final vertex.
            assert_eq!(stats.pool.tasks, 2, "workers={workers}");
        }
    }

    #[test]
    fn single_spawn_runs_both_sides() {
        let (h, hits) = counter_pair();
        let (a, b) = (Arc::clone(&h), Arc::clone(&h));
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 2, move |ctx| {
            ctx.spawn(
                move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(10, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn chain_orders_strictly() {
        // `then` must observe every effect of `first`'s whole subtree.
        let (h, observed) = counter_pair();
        let spawned = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&spawned);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 4, move |ctx| {
            let h2 = Arc::clone(&h);
            ctx.chain(
                move |c| {
                    // first: a little spawn tree bumping `spawned`.
                    let (s1, s2, s3) = (Arc::clone(&s), Arc::clone(&s), Arc::clone(&s));
                    c.spawn(
                        move |c2| {
                            let (x, y) = (Arc::clone(&s1), s2);
                            c2.spawn(
                                move |_| {
                                    x.fetch_add(1, Ordering::Relaxed);
                                },
                                move |_| {
                                    y.fetch_add(1, Ordering::Relaxed);
                                },
                            );
                        },
                        move |_| {
                            s3.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                },
                move |_| {
                    // then: snapshot what first produced.
                    h2.store(3, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(observed.load(Ordering::Relaxed), 3);
        assert_eq!(spawned.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn chain_then_sees_first_effects() {
        // Write in first, read in then — the dependency makes it safe.
        let cell = Arc::new(AtomicU64::new(0));
        let out = Arc::new(AtomicU64::new(0));
        let (c1, c2) = (Arc::clone(&cell), Arc::clone(&cell));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 4, move |ctx| {
            ctx.chain(
                move |_| {
                    c1.store(42, Ordering::Relaxed);
                },
                move |_| {
                    o.store(c2.load(Ordering::Relaxed), Ordering::Relaxed);
                },
            );
        });
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }

    fn spawn_tree<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, hits: Arc<AtomicUsize>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (h1, h2) = (Arc::clone(&hits), hits);
        ctx.spawn(move |c| spawn_tree(c, depth - 1, h1), move |c| spawn_tree(c, depth - 1, h2));
    }

    fn check_spawn_tree<C: CounterFamily>(cfg: C::Config, workers: usize, depth: u32) {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        run_dag::<C, _>(cfg, workers, move |ctx| spawn_tree(ctx, depth, h));
        assert_eq!(hits.load(Ordering::Relaxed), 1 << depth);
    }

    #[test]
    fn deep_spawn_tree_dyn() {
        for workers in [1, 2, 4] {
            check_spawn_tree::<DynSnzi>(DynConfig::always_grow(), workers, 10);
            check_spawn_tree::<DynSnzi>(DynConfig::default(), workers, 10);
            check_spawn_tree::<DynSnzi>(DynConfig::never_grow(), workers, 10);
        }
    }

    #[test]
    fn deep_spawn_tree_fetch_add() {
        for workers in [1, 2, 4] {
            check_spawn_tree::<FetchAdd>((), workers, 10);
        }
    }

    #[test]
    fn deep_spawn_tree_fixed() {
        for depth in [0, 2, 5] {
            check_spawn_tree::<FixedDepth>(FixedConfig { depth }, 3, 10);
        }
    }

    #[test]
    fn nested_chains_and_spawns_mixed() {
        // indegree2-style nesting: every level opens a finish block.
        fn rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, hits: Arc<AtomicUsize>) {
            if n < 2 {
                hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let h = Arc::clone(&hits);
            ctx.chain(
                move |c| {
                    let (a, b) = (Arc::clone(&h), Arc::clone(&h));
                    c.spawn(move |c2| rec(c2, n / 2, a), move |c2| rec(c2, n / 2, b));
                },
                move |_| {},
            );
        }
        for workers in [1, 3] {
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            run_dag::<DynSnzi, _>(DynConfig::always_grow(), workers, move |ctx| rec(ctx, 64, h));
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn code_after_spawn_still_runs() {
        // spawn consumes the Ctx but the body may continue with plain code.
        let (h, hits) = counter_pair();
        let tail = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&tail);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 2, move |ctx| {
            let (a, b) = (Arc::clone(&h), Arc::clone(&h));
            ctx.spawn(
                move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                },
            );
            t.store(99, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(tail.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn worker_ids_visible_in_bodies() {
        let max_seen = Arc::new(AtomicUsize::new(0));
        let m = Arc::clone(&max_seen);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 3, move |ctx| {
            assert_eq!(ctx.num_workers(), 3);
            m.fetch_max(ctx.worker_id(), Ordering::Relaxed);
        });
        assert!(max_seen.load(Ordering::Relaxed) < 3);
    }

    #[test]
    fn fib_end_to_end() {
        fn fib<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, dest: Arc<AtomicU64>) {
            if n <= 1 {
                dest.store(n, Ordering::Relaxed);
                return;
            }
            let r1 = Arc::new(AtomicU64::new(0));
            let r2 = Arc::new(AtomicU64::new(0));
            let (a1, a2) = (Arc::clone(&r1), Arc::clone(&r2));
            ctx.chain(
                move |c| {
                    c.spawn(move |c2| fib(c2, n - 1, a1), move |c2| fib(c2, n - 2, a2));
                },
                move |_| {
                    dest.store(
                        r1.load(Ordering::Relaxed) + r2.load(Ordering::Relaxed),
                        Ordering::Relaxed,
                    );
                },
            );
        }
        let result = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&result);
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |ctx| fib(ctx, 15, r));
        assert_eq!(result.load(Ordering::Relaxed), 610);
    }
}
