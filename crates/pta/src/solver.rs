//! The worklist-based Andersen-style points-to solver with on-the-fly
//! call-graph construction.
//!
//! Semantics follow the standard subset-constraint formulation used by
//! Doop/Wala: flow-insensitive, field-sensitive, with a call graph
//! discovered during the fixpoint. Context sensitivity and heap
//! abstraction are pluggable ([`ContextSelector`], [`HeapAbstraction`]).
//!
//! # Difference propagation
//!
//! Points-to sets are [`pts::PtsSet`]s (hybrid sorted-vec / bitmap).
//! The worklist holds dirty *pointers*, not `(pointer, objects)` pairs:
//! each pointer carries one pending delta set into which all incoming
//! news is coalesced until the pointer is popped. Popping forwards only
//! that delta — never the full set — along copy edges via
//! [`pts::PtsSet::union_into`], whose returned delta seeds the next
//! hop. Type-filtered (cast) edges intersect against the filter type's
//! compiled id runs ([`pts::PtsSet::difference_in_ranges`]) with
//! word-wise ANDs instead of a per-object subtype walk.
//!
//! # Online cycle elimination
//!
//! Copy-edge cycles (mutually recursive parameter passing, `x = y; y =
//! x` chains) force every member pointer to converge to the same
//! points-to set — one delta hop per worklist pop, around and around.
//! The solver collapses such cycles while the fixpoint runs:
//!
//! - **Lazy Cycle Detection** (Hardekopf & Lin): when a popped delta
//!   crosses an unfiltered copy edge `x → y` without growing `y` and
//!   both endpoint sets have the same size, the edge is suspected to
//!   lie on a cycle. A bounded DFS looks for a return path `y ⇝ x`;
//!   if one exists, the cycle it closes is collapsed. Each edge is
//!   checked at most once.
//! - **Periodic SCC sweeps**: once enough copy edges accumulate since
//!   the last sweep (a counter heuristic), an iterative Tarjan pass
//!   collapses every new multi-node SCC in one go and raises the
//!   topological levels that drive wave propagation. A sweep walks
//!   only the *region* of the condensed copy graph reachable from the
//!   sources of the unfiltered edges added since the previous sweep:
//!   the previous sweep left no cycle, so every cycle now contains a
//!   new edge (or a component lazy cycle detection merged since, whose
//!   representative is a root too). The first sweep's roots are every
//!   edge so far, which makes it a full sweep.
//!
//! Collapsed pointers are unioned in a [`dsu::DisjointSets`]. The
//! *representative* owns the single shared points-to set, the single
//! pending-delta slot, and the merged consumer rows (copy edges,
//! loads, stores, calls); non-representatives keep empty slots. Every
//! solver entry point normalizes pointers through `find()` before
//! touching per-pointer state, and the final [`AnalysisResult`]
//! carries the redirect table so queries against collapsed pointers
//! resolve to the representative's set — collapse is invisible in
//! analysis results (members of an unfiltered copy cycle provably
//! converge to identical sets by mutual subset inclusion).
//!
//! # Wave propagation
//!
//! Between collapse points the worklist is processed in *waves*: the
//! dirty pointers are drained into a priority queue ordered by the
//! condensed copy graph's topological rank (sources first), so a delta
//! crosses the acyclic core once per wave instead of re-enqueueing
//! downstream pointers over and over. A pointer dirtied at or
//! downstream of the wave's cursor joins the running wave; a pointer
//! dirtied upstream waits for the next wave. `pta.wave_rounds` counts
//! the waves.
//!
//! # Parallel wave propagation
//!
//! With [`AnalysisConfig::threads`] above one, each wave is processed
//! *level-synchronously*: the topological ranks are **levels** of the
//! condensed copy graph — every unfiltered edge between
//! representatives climbs at least one level — so all dirty pointers
//! sharing a rank are mutually independent along unfiltered copy edges
//! and form one batch. A batch runs in three phases:
//!
//! 1. **Resolve** (sequential): normalize each member's copy row
//!    through the DSU and compile any missing cast range tables — the
//!    two pieces of solver state that are not thread-safe.
//! 2. **Propagate** (parallel, read-only): `std::thread::scope` shards
//!    the batch over worker threads via chunked self-scheduling (an
//!    atomic cursor). Each worker computes, into thread-local scratch
//!    buffers, every copy edge's *contribution* — [`pts::PtsSet::difference`]
//!    / [`pts::PtsSet::difference_in_ranges`] against a frozen view of
//!    the target sets — without writing a single byte of shared state.
//! 3. **Merge** (sequential, deterministic): contributions are applied
//!    target-by-target in ascending pointer-id order with
//!    [`pts::PtsSet::union_into_from_shards`], then each member's field
//!    loads/stores and call dispatches run in batch order. Because the
//!    merge order depends only on the batch contents — never on thread
//!    count or scheduling — any `threads` value produces bit-identical
//!    analysis results (enforced by `tests/thread_parity.rs`).
//!
//! `pta.par_shards` counts shards spawned, `pta.par_steal_none` counts
//! workers that found the cursor already exhausted, and
//! `pta.wave_barrier_ns` accumulates the coordinator's wait at the
//! level barrier; all three flow into `BENCH_pta.json`.
//!
//! # Hash-consed rows
//!
//! Representative points-to sets live behind copy-on-write
//! [`pts::PtsHandle`]s backed by one per-run [`pts::SetInterner`].
//! Pending deltas are plain [`pts::PtsSet`]s: they are drained every
//! wave and never sealed, so a handle would only add an `Arc`. (Cast
//! filters are *not* sets at all: under the hierarchy numbering each
//! filter type's subtype cone compiles to a [`pts::IdRanges`] list of
//! a few `[lo, hi)` runs — see [`crate::numbering`].) Context-sensitive runs produce thousands of
//! bit-identical rows (the same receiver objects under many calling
//! contexts); every [`SEAL_SWEEP_WAVES`] waves the solver *seals*
//! dirty rows — re-interning their content so identical rows collapse
//! onto one shared allocation — and evicts interner entries no live
//! row references. Mutation is check-before-write: a propagation step
//! first computes the contribution (`difference` /
//! `difference_in_ranges`) against the target read-only, and only a
//! non-empty contribution touches `make_mut`, so quiescent edges never
//! break sharing. Sealing changes allocation identity, never content,
//! which is why every golden parity fingerprint is preserved
//! bit-for-bit. `pta.pts_interned` / `pta.pts_dedup_hits` /
//! `pta.intern_probe_ns` report the interner's work;
//! `pta.pts_peak_words` becomes the peak *physical* footprint
//! (deduplicated by allocation) — read off the interner's live-entry
//! words right after each seal sweep, when every live entry is some
//! row's allocation — with the logical (per-row) footprint reported
//! through the timeline's memory breakdown.
//!
//! # Call binding
//!
//! A call edge `(caller context, site, callee context, target)` is
//! bound once: its first binding marks the callee reachable and adds
//! the argument and return copy edges, and every later dispatch that
//! picks the same edge only seeds its receiver into `this` (the edges
//! depend only on the call edge, and rows never lose an edge). One
//! dispatch path, `dispatch_all`, walks a call's new receivers in
//! ascending order, resolves the target once per receiver type, and
//! seeds consecutive receivers that share a call edge into `this` with
//! one `add_objects` — the same effect, in the same order, as
//! dispatching them one at a time. `pta.call_receivers` and
//! `pta.call_binds` count receivers dispatched on and full bindings.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu::DisjointSets;
use jir::{
    AllocId, CallKind, CallSiteId, CallTarget, FieldId, MethodId, Program, Stmt, TypeId, VarId,
};
use obs::timeline::{
    HotPointer, MemoryBreakdown, ShardSpan, WaveRecord, LEVEL_MIXED, LEVEL_OVERHEAD, LEVEL_SEED,
    LEVEL_UNRANKED,
};
use pts::{IdRanges, PtsHandle, PtsSet, SetInterner};

use crate::context::{ContextArena, ContextSelector, CtxId};
use crate::heap::HeapAbstraction;
use crate::object::{Numbering, ObjId, ObjTable};
use crate::result::{AnalysisResult, AnalysisStats};
use crate::util::{FastMap, FastSet};

/// An interned pointer node in the constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PtrId(pub(crate) u32);

impl PtrId {
    /// Returns the arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PtrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ptr#{}", self.0)
    }
}

/// The identity of a pointer node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PtrKey {
    /// A context-qualified local variable.
    Var(CtxId, VarId),
    /// An instance field of an abstract object.
    Field(ObjId, FieldId),
    /// A static field.
    Static(FieldId),
}

/// Resource limits for one analysis run.
///
/// The paper gives every configuration a 5-hour budget on a server;
/// workloads here are laptop-scale, so the default is 60 seconds.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall-clock limit.
    pub time_limit: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            time_limit: Duration::from_secs(60),
        }
    }
}

impl Budget {
    /// A budget with the given wall-clock limit in seconds.
    pub fn seconds(s: u64) -> Self {
        Budget {
            time_limit: Duration::from_secs(s),
        }
    }
}

/// Returned when an analysis exceeds its [`Budget`] — the analogue of the
/// paper's "unscalable within 5 hours" entries.
#[derive(Clone, Debug)]
pub struct Unscalable {
    /// Time spent before giving up.
    pub elapsed: Duration,
    /// Reachable `(context, method)` pairs processed before giving up.
    pub methods_processed: usize,
    /// Phase timings and counters accumulated up to the overrun, so an
    /// aborted run still reports where the time went (the paper's
    /// "unscalable within 5h" rows carry partial data too). Boxed to
    /// keep the error variant small on the `Result` hot path.
    pub stats: Box<AnalysisStats>,
}

impl std::fmt::Display for Unscalable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analysis exceeded its budget after {:.1}s ({} method contexts processed)",
            self.elapsed.as_secs_f64(),
            self.methods_processed
        )
    }
}

impl std::error::Error for Unscalable {}

/// One fully specified analysis run: context selector, heap
/// abstraction, resource budget, and observability — the single
/// construction path shared by the CLIs, the bench harness, and tests.
///
/// # Examples
///
/// ```
/// use pta::{AnalysisConfig, Budget, ContextInsensitive, AllocSiteAbstraction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = jir::parse(
///     "class A {
///        entry static method main() { x = new A; return; }
///      }",
/// )?;
/// let result = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
///     .budget(Budget::seconds(30))
///     .run(&program)?;
/// assert_eq!(result.object_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisConfig<S, H> {
    selector: S,
    heap: H,
    budget: Budget,
    observability: Option<bool>,
    threads: usize,
    numbering: Numbering,
}

impl<S: ContextSelector, H: HeapAbstraction> AnalysisConfig<S, H> {
    /// Creates a configuration with the default [`Budget`], the
    /// process-wide observability setting, and sequential (one-thread)
    /// wave propagation.
    pub fn new(selector: S, heap: H) -> Self {
        AnalysisConfig {
            selector,
            heap,
            budget: Budget::default(),
            observability: None,
            threads: 1,
            numbering: Numbering::default(),
        }
    }

    /// Sets the object-id numbering scheme. The default,
    /// [`Numbering::Hierarchy`], lays object ids out in class-hierarchy
    /// preorder lanes so cast masks compile to short range lists;
    /// [`Numbering::Discovery`] is the dense historical numbering.
    /// Results are bit-identical modulo the id permutation (exposed
    /// through [`AnalysisResult::obj_canonical_index`]).
    ///
    /// [`AnalysisResult::obj_canonical_index`]:
    ///     crate::AnalysisResult::obj_canonical_index
    pub fn numbering(mut self, numbering: Numbering) -> Self {
        self.numbering = numbering;
        self
    }

    /// Sets the worker-thread count for wave propagation (see the
    /// module docs on *parallel wave propagation*).
    ///
    /// `1` — the default — runs the classic sequential worklist loop;
    /// `0` means "auto": one shard per available hardware thread.
    /// Every thread count produces bit-identical analysis results; the
    /// knob only trades wall-clock for cores.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Replaces the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Shorthand for [`AnalysisConfig::budget`] with a wall-clock limit
    /// in seconds.
    pub fn time_limit_secs(self, s: u64) -> Self {
        self.budget(Budget::seconds(s))
    }

    /// Forces telemetry on or off for this run only (the process-wide
    /// [`obs::set_enabled`] state is restored afterwards). Useful for
    /// timing runs that must not pay recording overhead, or for
    /// recording a single run inside an otherwise quiet batch.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Runs the analysis to its fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Unscalable`] if the budget is exhausted first.
    pub fn run(&self, program: &Program) -> Result<AnalysisResult, Unscalable> {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let solver = || {
            Solver::new(
                program,
                &self.selector,
                &self.heap,
                self.budget,
                threads,
                self.numbering,
            )
        };
        let result = match self.observability {
            None => solver().solve(),
            Some(on) => {
                let prev = obs::enabled();
                obs::set_enabled(on);
                let r = solver().solve();
                obs::set_enabled(prev);
                r
            }
        };
        // Only waves sharded over threads free memory in a racy order.
        let sharded = match &result {
            Ok(r) => r.stats().par_shards > 0,
            Err(_) => threads > 1,
        };
        if sharded {
            release_free_heap();
        }
        result
    }
}

/// Hands the heap pages the finished run freed back to the operating
/// system.
///
/// A run allocates and frees millions of small sets. glibc's malloc
/// returns freed heap memory only from the top of the heap, so a single
/// allocation that outlives the run and lands high in the heap (the
/// caller's next small string, say) keeps every freed page below it
/// resident. Where that allocation lands depends on which thread freed
/// which chunk last; once a run shards its waves over threads that is
/// a race, so without this call the memory a process keeps after a
/// large run — and its peak resident set once it allocates again —
/// differed from one run of the same input to the next by tens of
/// megabytes. `malloc_trim` releases every free page wherever it lies
/// (a few milliseconds after a large run). Runs on one thread free in
/// a fixed order and skip it; other platforms and allocators are left
/// alone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds as free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// A statically resolved call waiting for receiver objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingCall {
    site: CallSiteId,
    caller_ctx: CtxId,
    /// For special calls the target is fixed; virtual calls dispatch on
    /// the receiver type.
    fixed_target: Option<MethodId>,
}

/// Collapse at most once per this many pending LCD candidates between
/// worklist pops (batching keeps the DFS off the per-delta hot path).
const LCD_BATCH: usize = 32;

/// Visit budget of one lazy-cycle-detection DFS.
const LCD_DFS_LIMIT: usize = 2048;

/// Levels smaller than this are processed inline: spawning shard
/// threads for a handful of pointers costs more than it saves.
const PAR_MIN_BATCH: usize = 16;

/// Target batch items per shard when sizing the thread fan-out (a
/// level of 40 pointers on an 8-thread budget spawns 5 shards, not 8).
const PAR_SHARD_ITEMS: usize = 8;

/// Minimum estimated propagate work — copy edges × delta objects,
/// summed over the batch — before a level fans out to shard threads.
/// Spawn plus barrier costs tens of microseconds per level, which the
/// many small-delta levels of a converging wave never pay back; they
/// run inline regardless of batch size. (This is what fixed t2 being
/// *slower* than t1: two threads splitting sub-threshold levels spent
/// more on coordination than the halved compute saved.)
const PAR_MIN_WORK: u64 = 1024;

/// Minimum merge groups (distinct contribution targets) before the
/// merge phase itself fans out to partition workers.
const PAR_MIN_MERGE: usize = 32;

/// A level batch (or coalesced run of batches) at least this expensive
/// always gets its own timeline record; cheaper work coalesces into a
/// `LEVEL_MIXED` residual so the record ring tracks where the time
/// went without one entry per micro-batch.
const TL_FLUSH_NS: u64 = 4_000_000;

/// Per-run budget of standalone records for level batches below
/// [`TL_FLUSH_NS`], so short runs (tests, tiny programs) still produce
/// per-level records instead of one coalesced blob.
const TL_FREE_RECORDS: u32 = 256;

/// Memory-attribution sampling period in waves (each sample scans
/// every points-to and pending set, so it must stay off the per-wave
/// hot path).
const TL_MEM_SAMPLE_WAVES: u64 = 64;

/// Rows in the hottest-pointer table published at finalize.
const TL_TOP_K: usize = 24;

/// Seal-sweep period in waves: dirty representative rows are
/// re-interned (deduplicating identical contents onto one shared
/// allocation) and dead interner entries evicted every this many
/// waves, and once more at finalize. Sealing hashes every dirty row's
/// words, so it stays off the per-wave hot path; between sweeps
/// mutated rows simply stay dirty and unique.
const SEAL_SWEEP_WAVES: u64 = 64;

// Memory samples read the physical footprint off the interner, which
// is exact only right after a seal sweep.
const _: () = assert!(TL_MEM_SAMPLE_WAVES.is_multiple_of(SEAL_SWEEP_WAVES));

/// Copy-row length at which `add_edge` membership switches from a
/// linear scan of the row to a mirrored hash set. Short rows stay
/// scan-only (cheaper and allocation-free); hub rows — field pointers
/// replayed once per load/store-site × object — get the set.
const EDGE_SET_MIN: usize = 48;

/// A copy edge as stored in `succ` rows: target pointer plus the
/// optional declared-type filter carried by cast edges.
type Edge = (PtrId, Option<TypeId>);

/// `sweep_slot` value of a pointer outside the running sweep's region
/// (and of every pointer between sweeps).
const SLOT_FREE: u32 = u32::MAX;

/// Per-run funnel from the solver's hot loops into [`obs::timeline`].
///
/// Batches worth at least [`TL_FLUSH_NS`] become standalone
/// [`WaveRecord`]s; real level batches below that spend the per-run
/// [`TL_FREE_RECORDS`] budget; everything else is absorbed into a
/// `LEVEL_MIXED` residual flushed once it accumulates [`TL_FLUSH_NS`]
/// or at a wave boundary. When observability was off at run start
/// (`on == false`) every method returns immediately and no `Instant`
/// is ever read — the profiler is fully inert.
struct TimelineSink {
    on: bool,
    run: u32,
    wave: u32,
    free_left: u32,
    residual: WaveRecord,
}

impl TimelineSink {
    fn new() -> Self {
        let on = obs::enabled();
        TimelineSink {
            on,
            run: if on { obs::timeline().begin_run() } else { 0 },
            wave: 0,
            free_left: TL_FREE_RECORDS,
            residual: WaveRecord::default(),
        }
    }

    /// `Instant::now()` when recording, `None` otherwise — the hot
    /// loops thread these marks through so disabled runs never touch
    /// the clock.
    fn now(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Routes one measured batch record (run/wave stamped here).
    fn batch(&mut self, mut rec: WaveRecord) {
        if !self.on {
            return;
        }
        rec.run = self.run;
        rec.wave = self.wave;
        if rec.total_ns() >= TL_FLUSH_NS {
            obs::timeline().record_wave(rec);
            return;
        }
        // The free budget is reserved for real level batches (pops >
        // 0): tiny runs still get per-level records, while cheap
        // seed/overhead slivers always coalesce.
        if rec.pops > 0 && self.free_left > 0 {
            self.free_left -= 1;
            obs::timeline().record_wave(rec);
            return;
        }
        if self.residual.pops == 0 && self.residual.total_ns() == 0 {
            self.residual.wave = rec.wave;
        }
        self.residual.absorb(&rec);
        if self.residual.total_ns() >= TL_FLUSH_NS {
            self.flush_residual();
        }
    }

    /// Emits the coalesced residual as one `LEVEL_MIXED` record.
    fn flush_residual(&mut self) {
        if !self.on {
            return;
        }
        let rec = std::mem::take(&mut self.residual);
        if rec.pops == 0 && rec.total_ns() == 0 {
            return;
        }
        obs::timeline().record_wave(WaveRecord {
            run: self.run,
            level: LEVEL_MIXED,
            ..rec
        });
    }

    /// Records solver bookkeeping (collapse, wave scheduling, init and
    /// finalize) elapsed since `t0`; no-op on disabled runs.
    fn overhead_since(&mut self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        self.batch(WaveRecord {
            level: LEVEL_OVERHEAD,
            resolve_ns: t0.elapsed().as_nanos() as u64,
            ..WaveRecord::default()
        });
    }

    /// Records a statement-processing (seed) drain elapsed since `t0`.
    fn seed_since(&mut self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        self.batch(WaveRecord {
            level: LEVEL_SEED,
            merge_ns: t0.elapsed().as_nanos() as u64,
            ..WaveRecord::default()
        });
    }
}

/// Identity a parallel propagate shard stamps on its [`ShardSpan`]
/// (present only when the batch is profiled and actually sharded).
#[derive(Clone, Copy)]
struct ShardCtx {
    run: u32,
    wave: u32,
    level: u32,
}

/// Per-item output of one parallel wave shard: the copy-edge
/// contributions `(target representative, objects new to it)` computed
/// against a frozen view of the points-to sets, plus the quiescent
/// unfiltered edges to probe for lazy cycle detection.
#[derive(Default)]
struct ItemOut {
    contribs: Vec<(u32, PtsSet<ObjId>)>,
    lcd: Vec<u32>,
}

/// One target row of a partitioned parallel merge: the handle swapped
/// out of the points-to table (the owning worker mutates it freely),
/// the span of the sorted slot list contributing to it, and the merged
/// delta the coordinator queues after restoring the row.
struct MergeItem {
    target: u32,
    row: PtsHandle<ObjId>,
    slots: (usize, usize),
    delta: PtsSet<ObjId>,
}

/// Merges one partition of target rows. Each [`MergeItem`] exclusively
/// owns its row, so partitions tile the merge with no shared writes;
/// the per-row union order (ascending slot index = ascending batch
/// index) is the same as the sequential merge arm's.
fn merge_partition(part: &mut [MergeItem], slots: &[(u32, usize, usize)], outs: &[(usize, ItemOut)]) {
    for item in part {
        let (si, end) = item.slots;
        item.delta = PtsSet::union_into_from_shards(
            slots[si..end]
                .iter()
                .map(|&(_, oi, ci)| &outs[oi].1.contribs[ci].1),
            item.row.make_mut(),
        );
    }
}

/// One shard of the parallel propagate phase: claims chunks of the
/// level batch off the shared cursor and computes, for every claimed
/// item, its copy-edge contributions against the frozen points-to
/// sets. Reads only — every row was DSU-normalized and every cast
/// range table compiled by the resolve phase. Returns the tagged per-item
/// outputs, whether this shard claimed any chunk at all (the
/// `pta.par_steal_none` signal), and — when `ctx` carries a
/// `(ShardCtx, shard index)` — the shard's busy nanoseconds, recording
/// its execution window as a [`ShardSpan`] for the Chrome trace.
fn shard_worker(
    batch: &[(PtrId, PtsSet<ObjId>)],
    succ: &[Vec<(PtrId, Option<TypeId>)>],
    pts: &[PtsHandle<ObjId>],
    ranges: &FastMap<TypeId, IdRanges>,
    cursor: &AtomicUsize,
    chunk: usize,
    ctx: Option<(ShardCtx, u32)>,
) -> (Vec<(usize, ItemOut)>, bool, u64) {
    let timed = ctx.map(|c| (c, obs::epoch_us(), Instant::now()));
    let mut out: Vec<(usize, ItemOut)> = Vec::new();
    let mut got_any = false;
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= batch.len() {
            break;
        }
        got_any = true;
        let end = (start + chunk).min(batch.len());
        for (bi, &(ptr, ref delta)) in batch.iter().enumerate().take(end).skip(start) {
            let i = ptr.index();
            let mut item = ItemOut::default();
            for &(to, filter) in &succ[i] {
                if to == ptr {
                    continue; // self-edge: never contributes
                }
                let ti = to.index();
                let d = match filter {
                    None => delta.difference(&pts[ti]),
                    Some(ty) => delta.difference_in_ranges(&ranges[&ty], &pts[ti]),
                };
                if d.is_empty() {
                    // Same hint as the sequential path: an unfiltered
                    // edge the delta crossed without growing the target,
                    // with equal endpoint sizes, may close a cycle.
                    if filter.is_none() && pts[i].len() == pts[ti].len() {
                        item.lcd.push(to.0);
                    }
                } else {
                    item.contribs.push((to.0, d));
                }
            }
            if !item.contribs.is_empty() || !item.lcd.is_empty() {
                out.push((bi, item));
            }
        }
    }
    let busy_ns = match timed {
        Some(((c, shard), start_us, t0)) => {
            let busy = t0.elapsed();
            obs::timeline().record_shard(ShardSpan {
                run: c.run,
                wave: c.wave,
                level: c.level,
                shard,
                start_us,
                dur_us: busy.as_micros() as u64,
            });
            busy.as_nanos() as u64
        }
        None => 0,
    };
    (out, got_any, busy_ns)
}

struct Solver<'a, S, H> {
    program: &'a Program,
    selector: &'a S,
    heap: &'a H,
    budget: Budget,
    /// Wave-propagation shard budget (1 = sequential worklist loop).
    threads: usize,
    start: Instant,

    arena: ContextArena,
    objs: ObjTable,

    ptr_map: FastMap<PtrKey, PtrId>,
    ptr_keys: Vec<PtrKey>,
    pts: Vec<PtsHandle<ObjId>>,
    /// Pending (coalesced) delta per pointer; non-empty only on
    /// representatives, and only while the pointer awaits processing.
    /// Pending deltas are transient (drained every wave) and never
    /// sealed, so they are plain sets, not handles.
    pending: Vec<PtsSet<ObjId>>,
    /// Copy edges with an optional declared-type filter (cast edges).
    /// Rows live on representatives; targets are normalized lazily at
    /// processing time and eagerly when a sweep's region covers the row.
    succ: Vec<Vec<Edge>>,
    /// Exact membership mirror of `succ` rows past [`EDGE_SET_MIN`]
    /// entries. `add_edge` is called once per (edge site, replayed
    /// object); on hub rows the linear `contains` scan is the solver's
    /// dominant cost, so long rows carry a hash set that must always
    /// reflect the row's exact (possibly unnormalized) contents.
    succ_set: Vec<Option<Box<FastSet<Edge>>>>,
    loads: Vec<Vec<(FieldId, PtrId)>>,
    stores: Vec<Vec<(FieldId, PtrId)>>,
    calls: Vec<Vec<PendingCall>>,
    /// Range-compiled cast masks: `ranges[ty]` covers every interned
    /// object whose type is a subtype of `ty`, as coalesced id runs
    /// (short under hierarchy numbering — that is the point of the
    /// numbering). Built lazily on the first cast against `ty`,
    /// maintained per newly interned object; never materialized as a
    /// set, so the old `pta.mem_mask_words` bitmap cost is gone.
    ranges: FastMap<TypeId, IdRanges>,

    /// The per-run hash-consing store behind every `pts` row and mask;
    /// shared with the [`AnalysisResult`] so query-surface caches
    /// deduplicate against the same table.
    interner: Arc<SetInterner<ObjId>>,
    /// The canonical sealed empty handle (interner id 0); cloned to
    /// materialize fresh rows and to drain pending slots without
    /// allocating.
    empty: PtsHandle<ObjId>,

    /// The cycle-collapse partition over pointer ids. A pointer's
    /// per-index solver state is authoritative only on `find(p) == p`.
    dsu: DisjointSets,
    /// Topological level per representative in the condensed copy
    /// graph (sources low): every unfiltered edge between
    /// representatives climbs at least one level. Maintained by the SCC
    /// sweeps, which only ever raise levels; pointers interned after
    /// the last sweep rank `u32::MAX` (processed last).
    topo: Vec<u32>,
    /// Copy edges added since the last SCC sweep (the sweep trigger
    /// counter).
    edges_since_sweep: usize,
    /// Sources of the unfiltered copy edges added since the last sweep:
    /// the next sweep's region roots.
    sweep_roots: Vec<u32>,
    /// Components lazy cycle detection collapsed since the last sweep,
    /// as (member, highest level any member held): extra region roots
    /// whose level must not drop below what their members had.
    merged_since_sweep: Vec<(u32, u32)>,
    /// One slot per pointer: during a sweep, a region pointer's index
    /// into the sweep's region-local vectors; [`SLOT_FREE`] otherwise.
    sweep_slot: Vec<u32>,
    /// Region sizes summed over every sweep (`pta.sweep_region_ptrs`).
    sweep_region_ptrs: u64,
    /// Unfiltered copy edges already probed by lazy cycle detection.
    lcd_checked: FastSet<(PtrId, PtrId)>,
    /// Quiescent-edge observations awaiting an LCD probe.
    lcd_candidates: Vec<(PtrId, PtrId)>,
    /// LCD visited marks: a pointer is visited by the running probe iff
    /// its mark equals `lcd_epoch`. Each probe takes a fresh stamp, so
    /// probes allocate nothing; the marks are cleared only when the
    /// epoch wraps.
    lcd_mark: Vec<u32>,
    /// Stamp of the running (or last) LCD probe.
    lcd_epoch: u32,

    reachable: FastSet<(CtxId, MethodId)>,
    reachable_methods: FastSet<MethodId>,
    /// Context-insensitive call-graph edges.
    cg_edges: FastSet<(CallSiteId, MethodId)>,
    /// Context-sensitive call-graph edge count.
    cs_cg_edges: FastSet<(CtxId, CallSiteId, CtxId, MethodId)>,
    /// Virtual-dispatch memo: `(site, receiver type) → target`.
    /// [`Program::dispatch`] hashes an owned `(String, usize)` key per
    /// call; resolving each pair once makes repeat dispatches
    /// allocation-free.
    dispatch_cache: FastMap<(CallSiteId, TypeId), Option<MethodId>>,
    /// Per-method return variables (cached).
    return_vars: Vec<Vec<VarId>>,
    /// Receiver objects dispatched on, summed over calls
    /// (`pta.call_receivers`).
    call_receivers: u64,
    /// Full call bindings — one per context-sensitive call-graph edge
    /// (`pta.call_binds`).
    call_binds: u64,

    worklist: VecDeque<PtrId>,
    /// Newly reachable `(context, method)` pairs awaiting statement
    /// processing (kept iterative to bound stack depth on deep call
    /// chains).
    pending_methods: VecDeque<(CtxId, MethodId)>,
    stats: AnalysisStats,

    /// Timeline funnel for this run (inert when observability was off
    /// at run start).
    tl: TimelineSink,
    /// Per-pointer popped-delta words, feeding the hottest-pointer
    /// table; grown alongside `pts` only while profiling.
    hot_words: Vec<u64>,
    /// Per-pointer worklist pops, feeding the hottest-pointer table.
    hot_pops: Vec<u32>,
    /// Largest pending-delta footprint seen at any memory sample.
    pending_peak_words: u64,
    /// `worklist_pops` already mirrored into `pta.live_worklist_pops`.
    live_pops_published: u64,
}

impl<'a, S: ContextSelector, H: HeapAbstraction> Solver<'a, S, H> {
    fn new(
        program: &'a Program,
        selector: &'a S,
        heap: &'a H,
        budget: Budget,
        threads: usize,
        numbering: Numbering,
    ) -> Self {
        let return_vars = program
            .method_ids()
            .map(|m| {
                program
                    .method(m)
                    .body()
                    .iter()
                    .filter_map(|s| match *s {
                        Stmt::Return { value } => value,
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let interner = Arc::new(SetInterner::new());
        let empty = interner.empty_handle();
        Solver {
            program,
            selector,
            heap,
            budget,
            threads: threads.max(1),
            start: Instant::now(),
            arena: ContextArena::new(),
            objs: ObjTable::with_numbering(program, numbering),
            ptr_map: FastMap::default(),
            ptr_keys: Vec::new(),
            pts: Vec::new(),
            pending: Vec::new(),
            succ: Vec::new(),
            succ_set: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            calls: Vec::new(),
            ranges: FastMap::default(),
            interner,
            empty,
            dsu: DisjointSets::new(0),
            topo: Vec::new(),
            edges_since_sweep: 0,
            sweep_roots: Vec::new(),
            merged_since_sweep: Vec::new(),
            sweep_slot: Vec::new(),
            sweep_region_ptrs: 0,
            lcd_checked: FastSet::default(),
            lcd_candidates: Vec::new(),
            lcd_mark: Vec::new(),
            lcd_epoch: 0,
            reachable: FastSet::default(),
            reachable_methods: FastSet::default(),
            cg_edges: FastSet::default(),
            cs_cg_edges: FastSet::default(),
            dispatch_cache: FastMap::default(),
            return_vars,
            call_receivers: 0,
            call_binds: 0,
            worklist: VecDeque::new(),
            pending_methods: VecDeque::new(),
            stats: AnalysisStats::default(),
            tl: TimelineSink::new(),
            hot_words: Vec::new(),
            hot_pops: Vec::new(),
            pending_peak_words: 0,
            live_pops_published: 0,
        }
    }

    fn solve(mut self) -> Result<AnalysisResult, Unscalable> {
        {
            let _init = obs::span("solver.init");
            let t0 = self.tl.now();
            let empty = self.arena.empty();
            self.mark_reachable(empty, self.program.entry());
            self.stats.init_time = self.start.elapsed();
            self.tl.overhead_since(t0);
        }

        let fixpoint_start = Instant::now();
        let fixpoint_span = obs::span("solver.fixpoint");
        let delta_hist = obs::histogram("pta.worklist_delta_size");
        let mut since_check = 0usize;
        'fixpoint: loop {
            // Statement processing first: it seeds objects and edges the
            // wave below will propagate.
            let t_seed = if self.pending_methods.is_empty() {
                None
            } else {
                self.tl.now()
            };
            while let Some((ctx, method)) = self.pending_methods.pop_front() {
                self.process_method(ctx, method);
            }
            self.tl.seed_since(t_seed);
            if self.worklist.is_empty() {
                break 'fixpoint;
            }

            // Wave boundary: collapse cycles found since the last wave,
            // then re-sweep once enough copy edges arrived — fresh
            // topological ranks are what make the wave pay off (stale
            // ranks degenerate toward FIFO).
            let t_over = self.tl.now();
            self.apply_lcd();
            if self.edges_since_sweep >= self.boundary_sweep_threshold() {
                self.collapse_sweep();
            }

            // One wave: dirty pointers in topological rank order.
            self.stats.wave_rounds += 1;
            self.tl.wave = self.stats.wave_rounds as u32;
            let dirty: Vec<PtrId> = self.worklist.drain(..).collect();
            let mut wave: BinaryHeap<Reverse<(u32, u32)>> = dirty
                .into_iter()
                .map(|p| Reverse((self.rank(p), p.0)))
                .collect();
            let mut next_wave: Vec<PtrId> = Vec::new();
            self.tl.overhead_since(t_over);

            let overrun = if self.threads > 1 {
                self.wave_parallel(&mut wave, &mut next_wave, &delta_hist, &mut since_check)
            } else {
                self.wave_sequential(&mut wave, &mut next_wave, &delta_hist, &mut since_check)
            };
            if overrun {
                drop(fixpoint_span);
                return Err(self.overrun(fixpoint_start));
            }
            self.worklist.extend(next_wave);
            // Seal before any memory sample so the sample sees the
            // deduplicated footprint the sweep just established.
            if self.stats.wave_rounds.is_multiple_of(SEAL_SWEEP_WAVES) {
                self.seal_dirty();
            }
            if self.tl.on {
                obs::counter("pta.live_wave_rounds").inc();
                let pops = self.stats.worklist_pops;
                obs::counter("pta.live_worklist_pops").add(pops - self.live_pops_published);
                self.live_pops_published = pops;
                if self.stats.wave_rounds.is_multiple_of(TL_MEM_SAMPLE_WAVES) {
                    self.sample_memory(self.stats.wave_rounds as u32);
                }
            }
        }
        drop(fixpoint_span);
        self.stats.fixpoint_time = fixpoint_start.elapsed();

        let finalize_start = Instant::now();
        let finalize_span = obs::span("solver.finalize");
        self.stats.context_count = self.arena.len();
        self.stats.call_graph_edges = self.cg_edges.len() as u64;
        // One last seal sweep deduplicates whatever mutated since the
        // previous one; `seal_dirty` folds the post-seal physical
        // footprint into the running `pts_peak_words` maximum.
        self.seal_dirty();
        self.stats.pts_interned = self.interner.interned();
        self.stats.pts_dedup_hits = self.interner.dedup_hits();
        self.stats.dsu_ops = self.dsu.ops();
        self.stats.mask_ranges = self.ranges.values().map(|r| r.run_count() as u64).sum();
        if obs::enabled() {
            let pts_hist = obs::histogram("pta.points_to_set_size");
            for set in &self.pts {
                pts_hist.record(set.len() as u64);
            }
            obs::gauge("pta.pointer_nodes").set(self.pts.len() as i64);
            obs::counter("pta.sweep_region_ptrs").add(self.sweep_region_ptrs);
            obs::counter("pta.call_receivers").add(self.call_receivers);
            obs::counter("pta.call_binds").add(self.call_binds);
        }
        #[cfg(test)]
        LAST_CALL_COUNTS.with(|c| c.set((self.call_binds, self.call_receivers)));
        if self.tl.on {
            // Final memory attribution. Every sample is taken right
            // after a seal sweep, so the retained (largest-`rep_words`)
            // sample's physical footprint is exactly the
            // `pts_peak_words` running maximum this run reports.
            self.sample_memory(0);
            self.publish_top_pointers();
            obs::gauge("pta.pending_peak_words").set(self.pending_peak_words as i64);
        }
        let result = AnalysisResult::from_parts(
            self.arena,
            self.objs,
            self.ptr_keys,
            self.ptr_map,
            self.pts,
            self.interner,
            self.dsu.snapshot(),
            self.reachable,
            self.reachable_methods,
            self.cg_edges,
            self.cs_cg_edges.len(),
            AnalysisStats::default(), // placeholder, replaced below
        );
        drop(finalize_span);
        self.stats.finalize_time = finalize_start.elapsed();
        self.tl.batch(WaveRecord {
            level: LEVEL_OVERHEAD,
            resolve_ns: self.stats.finalize_time.as_nanos() as u64,
            ..WaveRecord::default()
        });
        self.tl.flush_residual();
        self.stats.elapsed = self.start.elapsed();
        self.stats.publish();
        Ok(result.with_stats(self.stats))
    }

    /// Final bookkeeping of a budget-overrun exit.
    fn overrun(&mut self, fixpoint_start: Instant) -> Unscalable {
        self.stats.fixpoint_time = fixpoint_start.elapsed();
        self.stats.elapsed = self.start.elapsed();
        self.stats.context_count = self.arena.len();
        self.stats.call_graph_edges = self.cg_edges.len() as u64;
        self.seal_dirty();
        self.stats.pts_interned = self.interner.interned();
        self.stats.pts_dedup_hits = self.interner.dedup_hits();
        self.stats.dsu_ops = self.dsu.ops();
        self.stats.mask_ranges = self.ranges.values().map(|r| r.run_count() as u64).sum();
        if self.tl.on {
            // An aborted run may still be the process peak: sample it
            // so the memory categories cover whatever `pts_peak_words`
            // the bench record ends up reporting.
            self.sample_memory(self.stats.wave_rounds as u32);
            self.publish_top_pointers();
            obs::gauge("pta.pending_peak_words").set(self.pending_peak_words as i64);
            self.tl.flush_residual();
        }
        self.stats.publish();
        Unscalable {
            elapsed: self.start.elapsed(),
            methods_processed: self.reachable.len(),
            stats: Box::new(self.stats.clone()),
        }
    }

    /// Logical points-to row footprint in words: every row counted as
    /// if it were unshared — the pre-interning number. Against the
    /// physical footprint (the interner's [`SetInterner::live_words`]
    /// right after a seal sweep) it gives the dedup win.
    fn logical_words(&self) -> u64 {
        self.pts.iter().map(|h| h.mem_words() as u64).sum()
    }

    /// The physical row footprint counted the long way — each distinct
    /// row allocation once, by address. The oracle for the interner's
    /// running count, checked after every seal sweep in tests.
    #[cfg(test)]
    fn physical_words_by_address(&self) -> u64 {
        let mut seen: FastSet<usize> = FastSet::default();
        self.pts
            .iter()
            .filter(|h| seen.insert(h.addr()))
            .map(|h| h.mem_words() as u64)
            .sum()
    }

    /// Re-interns every dirty points-to row, evicts interner entries
    /// nothing references anymore, and folds the post-seal physical
    /// footprint into the `pts_peak_words` running maximum. Probe time
    /// lands in `intern_probe_ns`. After the sweep every row holds its
    /// content's canonical allocation and every live interner entry is
    /// held by some row, so the interner's live words are the physical
    /// footprint — O(distinct sets) to maintain, with no per-row
    /// address hashing.
    fn seal_dirty(&mut self) {
        let t0 = Instant::now();
        for h in &mut self.pts {
            h.seal(&self.interner);
        }
        self.interner.evict_dead();
        self.stats.intern_probe_ns += t0.elapsed().as_nanos() as u64;
        let physical = self.interner.live_words();
        #[cfg(test)]
        {
            assert_eq!(physical, self.physical_words_by_address(), "interner live words");
            PHYSICAL_WORD_CHECKS.with(|c| c.set(c.get() + 1));
        }
        self.stats.pts_peak_words = self.stats.pts_peak_words.max(physical);
    }

    /// Takes one memory-attribution sample (`wave` 0 = finalize) and
    /// mirrors it into the `pta.mem_*` gauges when it becomes the
    /// retained (largest-`rep_words`) sample. Scans every set, so
    /// callers keep it off the per-wave hot path; it must follow a seal
    /// sweep, which is what makes the interner's live words the
    /// physical footprint.
    fn sample_memory(&mut self, wave: u32) {
        let rep_words = self.interner.live_words();
        let logical_words = self.logical_words();
        let pending_words: u64 = self.pending.iter().map(|s| s.mem_words() as u64).sum();
        // Compiled range tables cost one word per run — the whole
        // point of the compilation; this attribution used to be the
        // mask bitmaps' footprint.
        let mask_words: u64 = self.ranges.values().map(|r| r.mem_words() as u64).sum();
        self.pending_peak_words = self.pending_peak_words.max(pending_words);
        self.stats.pts_peak_words = self.stats.pts_peak_words.max(rep_words);
        obs::gauge("pta.live_pts_words").set(rep_words as i64);
        let retained = obs::timeline().offer_memory(MemoryBreakdown {
            run: self.tl.run,
            wave,
            rep_words,
            logical_words,
            pending_words,
            mask_words,
        });
        if retained {
            obs::gauge("pta.mem_rep_words").set(rep_words as i64);
            obs::gauge("pta.mem_logical_words").set(logical_words as i64);
            obs::gauge("pta.mem_pending_words").set(pending_words as i64);
            obs::gauge("pta.mem_mask_words").set(mask_words as i64);
        }
    }

    /// Builds the hottest-pointer table (top [`TL_TOP_K`] popped-delta
    /// word totals) and offers it to the timeline, scored by this
    /// run's total popped words.
    fn publish_top_pointers(&self) {
        let total: u64 = self.hot_words.iter().sum();
        if total == 0 {
            return;
        }
        let mut idx: Vec<u32> = (0..self.hot_words.len() as u32)
            .filter(|&i| self.hot_words[i as usize] > 0)
            .collect();
        idx.sort_unstable_by_key(|&i| (Reverse(self.hot_words[i as usize]), i));
        idx.truncate(TL_TOP_K);
        // Count collapsed-SCC members for just the selected reps.
        let mut scc_size: FastMap<u32, u32> = idx.iter().map(|&i| (i, 0)).collect();
        for p in 0..self.pts.len() {
            if let Some(c) = scc_size.get_mut(&(self.dsu.find(p) as u32)) {
                *c += 1;
            }
        }
        let rows: Vec<HotPointer> = idx
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let ii = i as usize;
                HotPointer {
                    rank: k as u32 + 1,
                    key: format!("{:?}", self.ptr_keys[ii]),
                    words: self.hot_words[ii],
                    pops: u64::from(self.hot_pops[ii]),
                    set_len: self.pts[self.dsu.find(ii)].len() as u64,
                    scc_size: scc_size.get(&i).copied().unwrap_or(1).max(1),
                }
            })
            .collect();
        obs::timeline().offer_top_pointers(total, rows);
    }

    // --- Cycle collapse ----------------------------------------------------

    /// Returns the representative of `p` in the collapse partition.
    fn rep(&self, p: PtrId) -> PtrId {
        PtrId(self.dsu.find(p.index()) as u32)
    }

    /// Topological level of `p`'s representative in the condensed copy
    /// graph (low = upstream); pointers interned after the last sweep
    /// rank last.
    fn rank(&self, p: PtrId) -> u32 {
        self.topo
            .get(self.dsu.find(p.index()))
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// Copy edges to accumulate before the next SCC sweep.
    fn sweep_threshold(&self) -> usize {
        (self.pts.len() / 4).max(4096)
    }

    /// Copy edges that justify a sweep at a wave boundary. A sweep
    /// walks the region the new edges reach, sorts every row in it and
    /// rebuilds their membership mirrors; running it after *every* edge
    /// trickle made sweeps a top-three cost on the large workloads.
    /// Pointers added since the last sweep rank `u32::MAX` and are
    /// processed in the trailing unranked batch, so stale ranks cost
    /// extra pops, not correctness — the threshold trades a few re-pops
    /// for thousands of sweeps.
    fn boundary_sweep_threshold(&self) -> usize {
        (self.pts.len() / 64).max(256)
    }

    /// Routes pointers dirtied since the last routing step: downstream
    /// of the wave cursor joins the running wave, upstream waits for
    /// the next one.
    fn route_dirty(
        &mut self,
        wave: &mut BinaryHeap<Reverse<(u32, u32)>>,
        next_wave: &mut Vec<PtrId>,
        cursor_rank: u32,
    ) {
        while let Some(q) = self.worklist.pop_front() {
            let r = self.rank(q);
            if r >= cursor_rank {
                wave.push(Reverse((r, q.0)));
            } else {
                next_wave.push(q);
            }
        }
    }

    /// Processes one wave with the classic sequential per-pop loop
    /// (`threads == 1`). Returns `true` on budget overrun.
    fn wave_sequential(
        &mut self,
        wave: &mut BinaryHeap<Reverse<(u32, u32)>>,
        next_wave: &mut Vec<PtrId>,
        delta_hist: &obs::Histogram,
        since_check: &mut usize,
    ) -> bool {
        // Consecutive pops at one topological rank coalesce into one
        // timeline record (the sequential analogue of a level batch).
        let mut cur = WaveRecord::default();
        let mut cur_any = false;
        while let Some(Reverse((cursor_rank, pi))) = wave.pop() {
            // Collapse between pops only — no row iteration is on
            // the stack here, so merging solver state is safe.
            if self.lcd_candidates.len() >= LCD_BATCH
                || self.edges_since_sweep >= self.sweep_threshold()
            {
                let t0 = self.tl.now();
                self.apply_lcd();
                if self.edges_since_sweep >= self.sweep_threshold() {
                    self.collapse_sweep();
                }
                self.route_dirty(wave, next_wave, cursor_rank);
                self.tl.overhead_since(t0);
            }

            *since_check += 1;
            if *since_check >= 4096 {
                *since_check = 0;
                if self.start.elapsed() > self.budget.time_limit {
                    if cur_any {
                        self.tl.batch(std::mem::take(&mut cur));
                    }
                    self.tl.flush_residual();
                    return true;
                }
            }

            let ptr = PtrId(pi);
            // A stale entry (pointer collapsed into a representative
            // or already drained by an earlier duplicate) carries no
            // pending delta; skip it without counting a pop.
            let delta = self.take_pending(ptr);
            if delta.is_empty() {
                continue;
            }
            self.stats.worklist_pops += 1;
            delta_hist.record(delta.len() as u64);
            if self.tl.on {
                let level = cursor_rank.min(LEVEL_UNRANKED);
                if cur_any && cur.level != level {
                    self.tl.batch(std::mem::take(&mut cur));
                }
                cur.level = level;
                cur.shards = 1;
                cur_any = true;
                cur.pops += 1;
                cur.objects += delta.len() as u64;
                cur.words += delta.mem_words() as u64;
                self.hot_words[ptr.index()] += delta.mem_words() as u64;
                self.hot_pops[ptr.index()] += 1;
            }
            let t0 = self.tl.now();
            self.process(ptr, &delta);
            let t1 = self.tl.now();
            while let Some((ctx, method)) = self.pending_methods.pop_front() {
                self.process_method(ctx, method);
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                cur.propagate_ns += t1.duration_since(t0).as_nanos() as u64;
                cur.merge_ns += t1.elapsed().as_nanos() as u64;
            }
            self.route_dirty(wave, next_wave, cursor_rank);
        }
        if cur_any {
            self.tl.batch(std::mem::take(&mut cur));
        }
        self.tl.flush_residual();
        false
    }

    /// Processes one wave level-synchronously (`threads > 1`): all
    /// dirty pointers sharing the lowest outstanding topological level
    /// form one batch handed to [`Solver::process_level`]. Returns
    /// `true` on budget overrun.
    fn wave_parallel(
        &mut self,
        wave: &mut BinaryHeap<Reverse<(u32, u32)>>,
        next_wave: &mut Vec<PtrId>,
        delta_hist: &obs::Histogram,
        since_check: &mut usize,
    ) -> bool {
        while let Some(&Reverse((level, _))) = wave.peek() {
            // Collapse between batches only: shard workers read the
            // copy rows and the partition, so both must be stable for
            // the whole batch.
            if self.lcd_candidates.len() >= LCD_BATCH
                || self.edges_since_sweep >= self.sweep_threshold()
            {
                let t0 = self.tl.now();
                self.apply_lcd();
                if self.edges_since_sweep >= self.sweep_threshold() {
                    self.collapse_sweep();
                }
                self.route_dirty(wave, next_wave, level);
                self.tl.overhead_since(t0);
            }

            // Drain the level. Equal-level pointers share no unfiltered
            // copy edge (every such edge climbs at least one level), so
            // their deltas can propagate from one frozen snapshot
            // concurrently. A filtered (cast) edge may connect level
            // peers; its target simply re-dirties and pops again in a
            // later batch.
            let mut batch: Vec<(PtrId, PtsSet<ObjId>)> = Vec::new();
            while let Some(&Reverse((r, pi))) = wave.peek() {
                if r != level {
                    break;
                }
                wave.pop();
                let ptr = PtrId(pi);
                let delta = self.take_pending(ptr);
                if !delta.is_empty() {
                    batch.push((ptr, delta));
                }
            }
            if batch.is_empty() {
                continue;
            }

            *since_check += batch.len();
            if *since_check >= 4096 {
                *since_check = 0;
                if self.start.elapsed() > self.budget.time_limit {
                    self.tl.flush_residual();
                    return true;
                }
            }

            self.process_level(&batch, level.min(LEVEL_UNRANKED), delta_hist);
            self.route_dirty(wave, next_wave, level);
        }
        self.tl.flush_residual();
        false
    }

    /// Processes one level batch in the three phases described in the
    /// module docs: sequential resolve, parallel read-only propagate,
    /// sequential deterministic merge. `level` is the batch's
    /// topological level (clamped to `LEVEL_UNRANKED`), used only for
    /// timeline attribution.
    fn process_level(
        &mut self,
        batch: &[(PtrId, PtsSet<ObjId>)],
        level: u32,
        delta_hist: &obs::Histogram,
    ) {
        let t_resolve = self.tl.now();
        let mut objects = 0u64;
        let mut words = 0u64;
        let mut est_work = 0u64;
        // Resolve: normalize every copy row in the batch through the
        // DSU (`Cell`-based, not `Sync`) and compile every cast range
        // table a shard might read. Rows stay sorted enough for the
        // workers: duplicates introduced by normalization are harmless
        // (unions are idempotent).
        for &(ptr, ref delta) in batch {
            let i = ptr.index();
            self.stats.worklist_pops += 1;
            delta_hist.record(delta.len() as u64);
            self.stats.delta_objects += delta.len() as u64;
            est_work += self.succ[i].len() as u64 * delta.len() as u64;
            if self.has_consumers(i) {
                self.stats.propagated_objects += delta.len() as u64;
            }
            if self.tl.on {
                objects += delta.len() as u64;
                words += delta.mem_words() as u64;
                self.hot_words[i] += delta.mem_words() as u64;
                self.hot_pops[i] += 1;
            }
            let mut changed = false;
            for k in 0..self.succ[i].len() {
                let (to_raw, filter) = self.succ[i][k];
                let to = self.rep(to_raw);
                if to != to_raw {
                    self.succ[i][k].0 = to;
                    changed = true;
                }
                if let Some(ty) = filter {
                    self.ensure_ranges(ty);
                    // The propagate shards answer this edge from the
                    // compiled table; count it here where stats are
                    // mutable.
                    self.stats.range_union_hits += 1;
                }
            }
            if changed && self.succ_set[i].is_some() {
                self.rebuild_succ_set(i);
            }
        }

        // Propagate: shards claim chunks of the batch off an atomic
        // cursor and compute copy-edge contributions against a frozen
        // view of the points-to sets — no shared writes at all.
        let t_prop = self.tl.now();
        let shards = if batch.len() >= PAR_MIN_BATCH && est_work >= PAR_MIN_WORK {
            self.threads
                .min(batch.len().div_ceil(PAR_SHARD_ITEMS))
                .max(1)
        } else {
            1
        };
        let chunk = batch.len().div_ceil(shards * 4).max(1);
        let cursor = AtomicUsize::new(0);
        let mut busy_ns = 0u64;
        let mut outs: Vec<(usize, ItemOut)> = if shards > 1 {
            self.stats.par_shards += shards as u64;
            let shard_ctx = if self.tl.on {
                Some(ShardCtx {
                    run: self.tl.run,
                    wave: self.tl.wave,
                    level,
                })
            } else {
                None
            };
            let succ = &self.succ;
            let pts = &self.pts;
            let ranges = &self.ranges;
            let cursor = &cursor;
            let (outs, steal_none, barrier_ns, busy) = std::thread::scope(|s| {
                let handles: Vec<_> = (1..shards)
                    .map(|k| {
                        let ctx = shard_ctx.map(|c| (c, k as u32));
                        s.spawn(move || shard_worker(batch, succ, pts, ranges, cursor, chunk, ctx))
                    })
                    .collect();
                let (mut outs, _, mut busy) =
                    shard_worker(batch, succ, pts, ranges, cursor, chunk, shard_ctx.map(|c| (c, 0)));
                let barrier_start = Instant::now();
                let mut steal_none = 0u64;
                for h in handles {
                    let (o, got_any, b) = h.join().expect("wave shard worker panicked");
                    if !got_any {
                        steal_none += 1;
                    }
                    busy += b;
                    outs.extend(o);
                }
                (outs, steal_none, barrier_start.elapsed().as_nanos() as u64, busy)
            });
            self.stats.par_steal_none += steal_none;
            self.stats.wave_barrier_ns += barrier_ns;
            busy_ns = busy;
            outs
        } else {
            shard_worker(batch, &self.succ, &self.pts, &self.ranges, &cursor, batch.len(), None).0
        };
        // Shards report in join order; batch index restores the one
        // true order before anything downstream looks at the results.
        let t_merge = self.tl.now();
        outs.sort_unstable_by_key(|&(bi, _)| bi);

        // Merge: apply contributions target-by-target in ascending
        // pointer-id order (ties broken by batch index), so the writes
        // depend only on the batch contents — never on thread count.
        let mut slots: Vec<(u32, usize, usize)> = Vec::new();
        for (oi, (_, item)) in outs.iter().enumerate() {
            for (ci, &(target, _)) in item.contribs.iter().enumerate() {
                slots.push((target, oi, ci));
            }
        }
        slots.sort_unstable();
        // Group the slot list by target: each group owns exactly one
        // points-to row, so groups form disjoint partitions that can
        // merge on worker threads without any synchronization.
        let mut groups: Vec<(u32, usize, usize)> = Vec::new();
        let mut si = 0;
        while si < slots.len() {
            let target = slots[si].0;
            let mut end = si;
            while end < slots.len() && slots[end].0 == target {
                end += 1;
            }
            groups.push((target, si, end));
            si = end;
        }
        let merge_shards = if shards > 1 && groups.len() >= PAR_MIN_MERGE {
            self.threads.min(groups.len().div_ceil(PAR_SHARD_ITEMS)).max(1)
        } else {
            1
        };
        if merge_shards > 1 {
            // Partitioned parallel merge: swap every target's handle
            // out of the table, hand workers contiguous partitions of
            // rows they exclusively own, then restore the handles and
            // queue the deltas sequentially in ascending target order
            // — the exact order the sequential arm below uses, so any
            // thread count still produces bit-identical results.
            self.stats.par_merge_shards += merge_shards as u64;
            let mut work: Vec<MergeItem> = groups
                .iter()
                .map(|&(t, si, end)| MergeItem {
                    target: t,
                    row: std::mem::replace(&mut self.pts[t as usize], self.empty.clone()),
                    slots: (si, end),
                    delta: PtsSet::new(),
                })
                .collect();
            let part = work.len().div_ceil(merge_shards);
            let slots_ref = &slots;
            let outs_ref = &outs;
            std::thread::scope(|s| {
                let mut rest: &mut [MergeItem] = &mut work;
                while rest.len() > part {
                    let (head, tail) = rest.split_at_mut(part);
                    s.spawn(move || merge_partition(head, slots_ref, outs_ref));
                    rest = tail;
                }
                merge_partition(rest, slots_ref, outs_ref);
            });
            for item in work {
                self.pts[item.target as usize] = item.row;
                self.queue_delta(PtrId(item.target), item.delta);
            }
        } else {
            for &(target, si, end) in &groups {
                // Every contribution was computed as a non-empty
                // difference against this exact target state, so the
                // merge always grows it — `make_mut` here never copies
                // without cause.
                let delta = PtsSet::union_into_from_shards(
                    slots[si..end]
                        .iter()
                        .map(|&(_, oi, ci)| &outs[oi].1.contribs[ci].1),
                    self.pts[target as usize].make_mut(),
                );
                self.queue_delta(PtrId(target), delta);
            }
        }

        // Quiescent edges spotted by the shards feed lazy cycle
        // detection exactly as in the sequential path.
        for (bi, item) in &outs {
            let from = batch[*bi].0;
            for &to in &item.lcd {
                let to = PtrId(to);
                if self.lcd_checked.insert((from, to)) {
                    self.lcd_candidates.push((from, to));
                }
            }
        }

        // Non-copy consumers (field loads/stores, call dispatch) mutate
        // solver state freely, so they run sequentially in batch order,
        // after all copy contributions have landed.
        for &(ptr, ref delta) in batch {
            self.process_consumers(ptr, delta);
            while let Some((ctx, method)) = self.pending_methods.pop_front() {
                self.process_method(ctx, method);
            }
        }

        if let (Some(t_resolve), Some(t_prop), Some(t_merge)) = (t_resolve, t_prop, t_merge) {
            let propagate_ns = t_merge.duration_since(t_prop).as_nanos() as u64;
            // Sharded batches account busy from the workers' own
            // clocks; idle is the propagate wall the shards did not
            // spend computing (scheduling skew plus the level barrier).
            let (busy, idle) = if shards > 1 {
                let wall = propagate_ns * shards as u64;
                (busy_ns, wall.saturating_sub(busy_ns))
            } else {
                (propagate_ns, 0)
            };
            self.tl.batch(WaveRecord {
                run: 0, // stamped by the sink
                wave: 0,
                level,
                pops: batch.len() as u32,
                objects,
                words,
                resolve_ns: t_prop.duration_since(t_resolve).as_nanos() as u64,
                propagate_ns,
                merge_ns: t_merge.elapsed().as_nanos() as u64,
                shards: shards as u32,
                busy_ns: busy,
                idle_ns: idle,
            });
        }
    }

    /// Probes every pending LCD candidate edge `from → to` for a return
    /// path `to ⇝ from` and collapses each cycle found.
    fn apply_lcd(&mut self) {
        if self.lcd_candidates.is_empty() {
            return;
        }
        let _span = obs::span("solver.lcd");
        if self.lcd_mark.len() < self.pts.len() {
            self.lcd_mark.resize(self.pts.len(), 0);
        }
        let cands = std::mem::take(&mut self.lcd_candidates);
        for (from, to) in cands {
            let (from, to) = (self.rep(from), self.rep(to));
            if from == to {
                continue; // already collapsed by an earlier candidate
            }
            if let Some(cycle) = self.find_cycle(to, from) {
                let level = cycle
                    .iter()
                    .map(|&m| self.topo.get(m as usize).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                self.collapse_scc(&cycle);
                self.merged_since_sweep.push((cycle[0], level));
            }
        }
    }

    /// Bounded DFS from `start` over unfiltered copy edges looking for
    /// `target`; returns the path (representatives, `start ..= target`)
    /// if found. Together with the triggering edge `target → start`,
    /// the path is one cycle. `lcd_mark` must cover every pointer.
    fn find_cycle(&mut self, start: PtrId, target: PtrId) -> Option<Vec<u32>> {
        self.lcd_epoch = self.lcd_epoch.wrapping_add(1);
        if self.lcd_epoch == 0 {
            self.lcd_mark.fill(0);
            self.lcd_epoch = 1;
        }
        let epoch = self.lcd_epoch;
        self.lcd_mark[start.index()] = epoch;
        let mut path: Vec<(u32, usize)> = vec![(start.0, 0)];
        let mut budget = LCD_DFS_LIMIT;
        'dfs: while let Some(&(v, _)) = path.last() {
            let vi = v as usize;
            loop {
                let cursor = path.last().unwrap().1;
                if cursor >= self.succ[vi].len() {
                    path.pop();
                    continue 'dfs;
                }
                path.last_mut().unwrap().1 = cursor + 1;
                let (to, filter) = self.succ[vi][cursor];
                if filter.is_some() {
                    continue;
                }
                let w = self.dsu.find(to.index()) as u32;
                if w == target.0 {
                    let mut cycle: Vec<u32> = path.iter().map(|&(n, _)| n).collect();
                    cycle.push(target.0);
                    return Some(cycle);
                }
                if w as usize == vi || self.lcd_mark[w as usize] == epoch {
                    continue;
                }
                self.lcd_mark[w as usize] = epoch;
                if budget == 0 {
                    return None;
                }
                budget -= 1;
                path.push((w, 0));
                continue 'dfs;
            }
        }
        None
    }

    /// Collapses one strongly connected component (all members must be
    /// current representatives): unions the members, moves every
    /// member's points-to set, pending delta, and consumer rows onto
    /// the surviving representative, and queues whatever some member's
    /// consumers have not seen yet.
    fn collapse_scc(&mut self, members: &[u32]) {
        debug_assert!(members.len() > 1);
        for w in members.windows(2) {
            self.dsu.union(w[0] as usize, w[1] as usize);
        }
        let r = self.dsu.find(members[0] as usize);

        let mut merged: PtsSet<ObjId> = PtsSet::new();
        let mut pend: PtsSet<ObjId> = PtsSet::new();
        let mut olds: Vec<(PtsHandle<ObjId>, bool)> = Vec::with_capacity(members.len());
        for &m in members {
            let mi = m as usize;
            let pts_m = std::mem::replace(&mut self.pts[mi], self.empty.clone());
            let pend_m = self.take_pending(PtrId(m));
            pend.union_with(&pend_m);
            merged.union_with(&pts_m);
            olds.push((pts_m, self.has_consumers(mi)));
        }
        // A member's consumers have seen `pts \ pending`; after the
        // merge they hang off the representative, so the pending delta
        // must cover `merged \ (pts \ pending) = (merged \ pts) ∪
        // pending` for every consumer-carrying member. Replaying an
        // object a consumer already saw is idempotent, so the union
        // over members is sound.
        for (old, has_consumers) in &olds {
            if *has_consumers && old.len() != merged.len() {
                pend.union_with(&merged.difference(old));
            }
        }

        let mut succ_r: Vec<(PtrId, Option<TypeId>)> = Vec::new();
        let mut loads_r: Vec<(FieldId, PtrId)> = Vec::new();
        let mut stores_r: Vec<(FieldId, PtrId)> = Vec::new();
        let mut calls_r: Vec<PendingCall> = Vec::new();
        for &m in members {
            let mi = m as usize;
            succ_r.append(&mut self.succ[mi]);
            self.succ_set[mi] = None;
            loads_r.append(&mut self.loads[mi]);
            stores_r.append(&mut self.stores[mi]);
            calls_r.append(&mut self.calls[mi]);
        }
        // Normalize the merged copy row; intra-SCC unfiltered edges
        // became self-loops and can never contribute again. (Filtered
        // self-loops are kept but skipped at processing time.)
        for e in &mut succ_r {
            e.0 = PtrId(self.dsu.find(e.0.index()) as u32);
        }
        succ_r.retain(|&(to, f)| !(to.index() == r && f.is_none()));
        succ_r.sort_unstable();
        succ_r.dedup();
        loads_r.sort_unstable();
        loads_r.dedup();
        stores_r.sort_unstable();
        stores_r.dedup();
        calls_r.sort_unstable();
        calls_r.dedup();
        self.succ[r] = succ_r;
        self.rebuild_succ_set(r);
        self.loads[r] = loads_r;
        self.stores[r] = stores_r;
        self.calls[r] = calls_r;

        self.stats.scc_collapsed_ptrs += (members.len() - 1) as u64;
        self.pts[r] = PtsHandle::from_set(merged);
        if !pend.is_empty() {
            self.pending[r] = pend;
            self.worklist.push_back(PtrId(r as u32));
        }
    }

    /// Region-limited cycle collapse. Any copy cycle among
    /// representatives contains an unfiltered edge added since the last
    /// sweep or passes through a component LCD collapsed since then, so
    /// an iterative Tarjan pass over just the part of the condensed copy
    /// graph reachable from those edges' sources (the *region*) finds
    /// every new multi-node SCC; the first sweep's roots are every edge
    /// so far, which makes it a full sweep. Inside the region, levels
    /// are raised so that every unfiltered edge between representatives
    /// still climbs at least one level (see the module docs), then each
    /// new SCC is collapsed and the region's rows are tidied.
    fn collapse_sweep(&mut self) {
        let _span = obs::span("solver.sweep");
        self.stats.collapse_sweeps += 1;
        self.edges_since_sweep = 0;
        let n = self.pts.len();
        // Pointers interned since the last sweep that the region does
        // not reach touch no unfiltered edge: level 0, as a source.
        self.topo.resize(n, 0);

        let mut roots = std::mem::take(&mut self.sweep_roots);
        let merged = std::mem::take(&mut self.merged_since_sweep);
        roots.extend(merged.iter().map(|&(r, _)| r));
        for r in &mut roots {
            *r = self.dsu.find(*r as usize) as u32;
        }
        roots.sort_unstable();
        roots.dedup();

        // Region-local Tarjan state, indexed by visit order: a region
        // pointer's `sweep_slot` is its index here (which doubles as its
        // Tarjan index), and `comp[i] == ON_STACK` marks a visited
        // pointer not yet assigned to a component.
        const ON_STACK: u32 = u32::MAX;
        let mut nodes: Vec<u32> = Vec::new();
        let mut low: Vec<u32> = Vec::new();
        let mut comp: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut frames: Vec<(u32, usize)> = Vec::new();
        // Components in Tarjan emission order (sinks first), as pointer
        // runs `comp_members[comp_start[e]..comp_start[e + 1]]`.
        let mut comp_members: Vec<u32> = Vec::new();
        let mut comp_start: Vec<u32> = vec![0];

        for &s in &roots {
            if self.sweep_slot[s as usize] != SLOT_FREE {
                continue;
            }
            let slot = nodes.len() as u32;
            self.sweep_slot[s as usize] = slot;
            nodes.push(s);
            low.push(slot);
            comp.push(ON_STACK);
            stack.push(slot);
            frames.push((slot, 0));
            'dfs: while let Some(&(v, _)) = frames.last() {
                let vi = nodes[v as usize] as usize;
                loop {
                    let cursor = frames.last().unwrap().1;
                    if cursor >= self.succ[vi].len() {
                        break;
                    }
                    frames.last_mut().unwrap().1 = cursor + 1;
                    let (to, filter) = self.succ[vi][cursor];
                    if filter.is_some() {
                        continue;
                    }
                    let wi = self.dsu.find(to.index());
                    if wi == vi {
                        continue;
                    }
                    let w = self.sweep_slot[wi];
                    if w == SLOT_FREE {
                        let w = nodes.len() as u32;
                        self.sweep_slot[wi] = w;
                        nodes.push(wi as u32);
                        low.push(w);
                        comp.push(ON_STACK);
                        stack.push(w);
                        frames.push((w, 0));
                        continue 'dfs;
                    } else if comp[w as usize] == ON_STACK {
                        low[v as usize] = low[v as usize].min(w);
                    }
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == v {
                    let e = comp_start.len() as u32 - 1;
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        comp[w as usize] = e;
                        comp_members.push(nodes[w as usize]);
                        if w == v {
                            break;
                        }
                    }
                    comp_start.push(comp_members.len() as u32);
                }
            }
        }
        self.sweep_region_ptrs += nodes.len() as u64;

        // Levels. A component starts at the highest level any of its
        // members (or any pointer LCD folded into one) held before, so
        // edges entering the region from outside — all older than the
        // last sweep, hence already climbing into their old target
        // level — keep climbing. Tarjan emitted sinks first, so walking
        // components in reverse emission order settles every
        // predecessor before its successors are relaxed: one pass over
        // the region's edges suffices. Levels only ever rise.
        let n_comps = comp_start.len() - 1;
        let run = |e: usize| comp_start[e] as usize..comp_start[e + 1] as usize;
        let mut level: Vec<u32> = (0..n_comps)
            .map(|e| {
                comp_members[run(e)]
                    .iter()
                    .map(|&m| self.topo[m as usize])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for &(r, l) in &merged {
            let e = comp[self.sweep_slot[self.dsu.find(r as usize)] as usize] as usize;
            level[e] = level[e].max(l);
        }
        for e in (0..n_comps).rev() {
            let l = level[e];
            for &m in &comp_members[run(e)] {
                for &(to, filter) in &self.succ[m as usize] {
                    if filter.is_some() {
                        continue;
                    }
                    let we = comp[self.sweep_slot[self.dsu.find(to.index())] as usize];
                    if we as usize != e {
                        let d = &mut level[we as usize];
                        *d = (*d).max(l + 1);
                    }
                }
            }
        }

        for (e, &l) in level.iter().enumerate() {
            let members = &comp_members[run(e)];
            for &m in members {
                self.topo[m as usize] = l;
            }
            if members.len() > 1 {
                self.collapse_scc(members);
            }
        }
        // Tidy the region's surviving rows: renormalize targets against
        // the new partition and drop duplicates so later pops scan less.
        // Rows outside the region may keep stale targets; every reader
        // resolves targets through `find()`.
        for &p in &nodes {
            let i = p as usize;
            self.sweep_slot[i] = SLOT_FREE;
            if self.dsu.find(i) != i || self.succ[i].is_empty() {
                continue;
            }
            let row = &mut self.succ[i];
            let mut renamed = false;
            for e in row.iter_mut() {
                let to = PtrId(self.dsu.find(e.0.index()) as u32);
                renamed |= to != e.0;
                e.0 = to;
            }
            let len = row.len();
            row.retain(|&(to, f)| !(to.index() == i && f.is_none()));
            row.sort_unstable();
            row.dedup();
            // Sorting alone leaves the row's contents, and so its
            // membership mirror, as they were.
            if renamed || row.len() != len {
                self.rebuild_succ_set(i);
            }
        }
        #[cfg(test)]
        self.check_sweep_oracle();
    }

    /// Test oracle run after every sweep: an independent full-graph
    /// Tarjan pass must find no multi-node SCC among representatives
    /// over unfiltered edges, and every such edge must climb strictly
    /// in `topo`.
    #[cfg(test)]
    fn check_sweep_oracle(&self) {
        let n = self.pts.len();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut frames: Vec<(u32, usize)> = Vec::new();
        for s in 0..n {
            if index[s] != UNVISITED || self.dsu.find(s) != s {
                continue;
            }
            index[s] = next_index;
            low[s] = next_index;
            next_index += 1;
            on_stack[s] = true;
            stack.push(s as u32);
            frames.push((s as u32, 0));
            while let Some(&(v, cursor)) = frames.last() {
                let vi = v as usize;
                if let Some(&(to, filter)) = self.succ[vi].get(cursor) {
                    frames.last_mut().unwrap().1 += 1;
                    let wi = self.dsu.find(to.index());
                    if filter.is_some() || wi == vi {
                        continue;
                    }
                    if index[wi] == UNVISITED {
                        index[wi] = next_index;
                        low[wi] = next_index;
                        next_index += 1;
                        on_stack[wi] = true;
                        stack.push(wi as u32);
                        frames.push((wi as u32, 0));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(index[wi]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let top = stack.pop().expect("Tarjan stack underflow");
                    on_stack[top as usize] = false;
                    assert_eq!(
                        top, v,
                        "sweep {} left a copy cycle through ptr#{v} and ptr#{top}",
                        self.stats.collapse_sweeps
                    );
                }
            }
        }
        for v in (0..n).filter(|&v| self.dsu.find(v) == v) {
            for &(to, filter) in &self.succ[v] {
                let w = self.dsu.find(to.index());
                if filter.is_some() || w == v {
                    continue;
                }
                assert!(
                    self.topo[v] < self.topo[w],
                    "sweep {}: edge ptr#{v} -> ptr#{w} does not climb (levels {} -> {})",
                    self.stats.collapse_sweeps,
                    self.topo[v],
                    self.topo[w]
                );
            }
        }
        SWEEPS_CHECKED.with(|c| c.set(c.get() + 1));
    }

    // --- Pointer graph primitives ----------------------------------------

    /// Re-derives the membership mirror of `succ[i]` after the row was
    /// mutated in place (normalization, collapse merge, tidy). Keeps
    /// the invariant: a mirror exists iff the row is long, and answers
    /// membership over exactly the row's current contents.
    fn rebuild_succ_set(&mut self, i: usize) {
        if self.succ[i].len() >= EDGE_SET_MIN {
            self.succ_set[i] = Some(Box::new(self.succ[i].iter().copied().collect()));
        } else {
            self.succ_set[i] = None;
        }
    }

    fn ptr(&mut self, key: PtrKey) -> PtrId {
        if let Some(&p) = self.ptr_map.get(&key) {
            return p;
        }
        let p = PtrId(u32::try_from(self.ptr_keys.len()).expect("too many pointers"));
        self.ptr_map.insert(key, p);
        self.ptr_keys.push(key);
        self.pts.push(self.empty.clone());
        self.pending.push(PtsSet::new());
        self.succ.push(Vec::new());
        self.succ_set.push(None);
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.calls.push(Vec::new());
        self.dsu.push();
        self.sweep_slot.push(SLOT_FREE);
        if self.tl.on {
            self.hot_words.push(0);
            self.hot_pops.push(0);
        }
        p
    }

    fn var_ptr(&mut self, ctx: CtxId, var: VarId) -> PtrId {
        self.ptr(PtrKey::Var(ctx, var))
    }

    /// Interns an abstract object and keeps the lazily compiled range
    /// tables consistent: a table must cover every object whose type
    /// passes its cast, including objects interned after it was built.
    /// Under hierarchy numbering same-type ids are consecutive, so the
    /// insert almost always extends an existing run in place.
    fn intern_obj(&mut self, hctx: CtxId, alloc: AllocId) -> ObjId {
        let before = self.objs.len();
        let obj = self.objs.intern(hctx, alloc, self.program);
        if self.objs.len() > before && !self.ranges.is_empty() {
            let oty = self.objs.ty(obj);
            for (&ty, runs) in self.ranges.iter_mut() {
                if self.program.is_subtype(oty, ty) {
                    runs.insert_id(obj.0);
                }
            }
        }
        obj
    }

    /// Compiles the range table for `ty` if this is the first cast
    /// against it: the sorted ids of every object in `ty`'s subtype
    /// cone, coalesced into runs.
    fn ensure_ranges(&mut self, ty: TypeId) {
        if self.ranges.contains_key(&ty) {
            return;
        }
        let mut ids: Vec<u32> = self
            .objs
            .iter()
            .filter(|&o| self.program.is_subtype(self.objs.ty(o), ty))
            .map(|o| o.0)
            .collect();
        ids.sort_unstable();
        self.ranges.insert(ty, IdRanges::from_sorted_ids(ids));
    }

    /// Returns `true` if anything observes the pointer's points-to set:
    /// an outgoing copy edge, a registered load/store, or a call
    /// dispatching on it.
    fn has_consumers(&self, i: usize) -> bool {
        !self.succ[i].is_empty()
            || !self.loads[i].is_empty()
            || !self.stores[i].is_empty()
            || !self.calls[i].is_empty()
    }

    /// Merges `delta` into the pointer's pending set, enqueueing the
    /// pointer on the empty→non-empty transition. `ptr` must already be
    /// a representative whose points-to set absorbed the delta.
    ///
    /// A delta arriving at a pointer with no consumers is dropped, not
    /// queued: the objects already live in `pts(ptr)`, and every
    /// consumer-registration path (`add_edge`, load/store registration,
    /// receiver-call registration) replays the full existing set when a
    /// consumer appears later — so popping a sink pointer can never do
    /// work. This skips the single useless pop most pointers would
    /// otherwise get.
    fn queue_delta(&mut self, ptr: PtrId, delta: PtsSet<ObjId>) {
        debug_assert_eq!(self.dsu.find(ptr.index()), ptr.index());
        if delta.is_empty() || !self.has_consumers(ptr.index()) {
            return;
        }
        let i = ptr.index();
        if self.pending[i].is_empty() {
            // Adopt the delta wholesale instead of copying into the
            // empty slot.
            self.pending[i] = delta;
            self.worklist.push_back(ptr);
        } else {
            self.pending[i].union_with(&delta);
        }
    }

    /// Drains the pointer's pending delta, leaving an empty
    /// (unallocated) set behind.
    fn take_pending(&mut self, ptr: PtrId) -> PtsSet<ObjId> {
        std::mem::take(&mut self.pending[ptr.index()])
    }

    /// Seeds `objs` into `pts(ptr)`, enqueueing the genuinely new part.
    /// Check-before-mutate: membership is probed read-only first, so a
    /// fully redundant seed never un-shares the row.
    fn add_objects(&mut self, ptr: PtrId, objs: impl IntoIterator<Item = ObjId>) {
        let ptr = self.rep(ptr);
        let mut delta = PtsSet::new();
        {
            let set = &self.pts[ptr.index()];
            for o in objs {
                if !set.contains(o) {
                    delta.insert(o);
                }
            }
        }
        if delta.is_empty() {
            return;
        }
        self.pts[ptr.index()].make_mut().union_with(&delta);
        self.queue_delta(ptr, delta);
    }

    /// Adds the copy edge `from → to` (optionally type-filtered) and
    /// replays the existing points-to set of `from`. Both endpoints are
    /// normalized to their representatives; an unfiltered edge that
    /// collapses to a self-loop is dropped (it can never contribute).
    fn add_edge(&mut self, from: PtrId, to: PtrId, filter: Option<TypeId>) {
        let (from, to) = (self.rep(from), self.rep(to));
        if from == to && filter.is_none() {
            return;
        }
        let fi = from.index();
        let entry = (to, filter);
        let present = match &self.succ_set[fi] {
            Some(set) => set.contains(&entry),
            None => self.succ[fi].contains(&entry),
        };
        if present {
            return;
        }
        self.succ[fi].push(entry);
        match &mut self.succ_set[fi] {
            Some(set) => {
                set.insert(entry);
            }
            None if self.succ[fi].len() >= EDGE_SET_MIN => {
                self.succ_set[fi] = Some(Box::new(self.succ[fi].iter().copied().collect()));
            }
            None => {}
        }
        self.stats.copy_edges += 1;
        self.edges_since_sweep += 1;
        if filter.is_none() {
            self.sweep_roots.push(from.0);
        }
        // A filtered self-edge stays in the graph (for edge-count
        // parity) but can never contribute: filtering a set into itself
        // adds nothing.
        if from == to || self.pts[from.index()].is_empty() {
            return;
        }
        if let Some(ty) = filter {
            self.ensure_ranges(ty);
        }
        // Share the source allocation (cheap `Arc` clone) so the replay
        // can mutate the target row; only a non-empty contribution
        // touches the target's copy-on-write path.
        let src = self.pts[from.index()].share();
        let delta = match filter {
            None => src.difference(&self.pts[to.index()]),
            Some(ty) => {
                self.stats.range_union_hits += 1;
                src.difference_in_ranges(&self.ranges[&ty], &self.pts[to.index()])
            }
        };
        if delta.is_empty() {
            return;
        }
        self.pts[to.index()].make_mut().union_with(&delta);
        self.queue_delta(to, delta);
    }

    // --- Delta processing --------------------------------------------------

    fn process(&mut self, ptr: PtrId, delta: &PtsSet<ObjId>) {
        let i = ptr.index();
        self.stats.delta_objects += delta.len() as u64;
        // "Propagated" counts only deltas that actually flow somewhere:
        // a pointer with no outgoing edges, loads, stores, or calls is a
        // sink and its delta dies here. (Sink deltas are no longer even
        // queued, so the guard is belt-and-braces.)
        if self.has_consumers(i) {
            self.stats.propagated_objects += delta.len() as u64;
        }

        // Rows are append-only between collapse points; iterate a
        // snapshot of the length. An entry appended mid-processing
        // replays the full source set at add time, which already covers
        // this delta.
        let n_succ = self.succ[i].len();
        for k in 0..n_succ {
            let (to_raw, filter) = self.succ[i][k];
            let to = self.rep(to_raw);
            if to == ptr {
                continue; // self-edge: never contributes
            }
            if let Some(ty) = filter {
                self.ensure_ranges(ty);
            }
            // Contribution first (read-only), copy-on-write only when
            // it is non-empty: quiescent edges leave sharing intact.
            let d = match filter {
                None => delta.difference(&self.pts[to.index()]),
                Some(ty) => {
                    self.stats.range_union_hits += 1;
                    delta.difference_in_ranges(&self.ranges[&ty], &self.pts[to.index()])
                }
            };
            if d.is_empty() {
                // Lazy cycle detection: the delta crossed `ptr → to`
                // without growing the target, and the endpoint sets
                // have equal sizes — the classic hint that the edge
                // lies on a converged cycle. Probe each edge once.
                if filter.is_none()
                    && self.pts[i].len() == self.pts[to.index()].len()
                    && self.lcd_checked.insert((ptr, to))
                {
                    self.lcd_candidates.push((ptr, to));
                }
            } else {
                self.pts[to.index()].make_mut().union_with(&d);
                self.queue_delta(to, d);
            }
        }

        self.process_consumers(ptr, delta);
    }

    /// Runs the non-copy consumers of a popped delta: field loads and
    /// stores materialize field pointers and edges, calls dispatch on
    /// the new receiver objects. Shared by the sequential per-pop path
    /// and the parallel merge phase (where it runs in batch order after
    /// every copy contribution has landed).
    fn process_consumers(&mut self, ptr: PtrId, delta: &PtsSet<ObjId>) {
        let i = ptr.index();
        // Field loads/stores and calls hang off variable pointers only.
        let n_loads = self.loads[i].len();
        for k in 0..n_loads {
            let (field, lhs) = self.loads[i][k];
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(fp, lhs, None);
            }
        }
        let n_stores = self.stores[i].len();
        for k in 0..n_stores {
            let (field, rhs) = self.stores[i][k];
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(rhs, fp, None);
            }
        }
        let n_calls = self.calls[i].len();
        for k in 0..n_calls {
            let call = self.calls[i][k];
            self.dispatch_all(call, delta);
        }
    }

    // --- Statements --------------------------------------------------------

    fn mark_reachable(&mut self, ctx: CtxId, method: MethodId) {
        if !self.reachable.insert((ctx, method)) {
            return;
        }
        self.reachable_methods.insert(method);
        self.stats.reachable_method_contexts += 1;
        self.pending_methods.push_back((ctx, method));
    }

    fn process_method(&mut self, ctx: CtxId, method: MethodId) {
        // Copy the program reference out of `self` so the body borrow
        // does not pin `self` (statement processing needs `&mut`).
        let program = self.program;
        for &stmt in program.method(method).body() {
            self.process_stmt(ctx, method, stmt);
        }
    }

    fn process_stmt(&mut self, ctx: CtxId, method: MethodId, stmt: Stmt) {
        match stmt {
            Stmt::New { lhs, site } => {
                let repr = self.heap.repr(site);
                // Merged objects are modeled context-insensitively
                // (paper Section 3.6.1).
                let hctx = if self.heap.is_merged(repr) {
                    self.arena.empty()
                } else {
                    self.selector.heap_context(&mut self.arena, ctx, repr)
                };
                let obj = self.intern_obj(hctx, repr);
                let lp = self.var_ptr(ctx, lhs);
                self.add_objects(lp, [obj]);
            }
            Stmt::Assign { lhs, rhs } => {
                let (rp, lp) = (self.var_ptr(ctx, rhs), self.var_ptr(ctx, lhs));
                self.add_edge(rp, lp, None);
            }
            Stmt::Load { lhs, base, field } => {
                let bp = self.var_ptr(ctx, base);
                let lp = self.var_ptr(ctx, lhs);
                let bp = self.rep(bp);
                self.loads[bp.index()].push((field, lp));
                // Replay objects already known for the base. The clone
                // is O(words); interning field pointers below may grow
                // `self.pts`, so the base set cannot stay borrowed.
                let existing = self.pts[bp.index()].clone();
                for obj in existing.iter() {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(fp, lp, None);
                }
            }
            Stmt::Store { base, field, rhs } => {
                let bp = self.var_ptr(ctx, base);
                let rp = self.var_ptr(ctx, rhs);
                let bp = self.rep(bp);
                self.stores[bp.index()].push((field, rp));
                let existing = self.pts[bp.index()].clone();
                for obj in existing.iter() {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(rp, fp, None);
                }
            }
            Stmt::StaticLoad { lhs, field } => {
                let sp = self.ptr(PtrKey::Static(field));
                let lp = self.var_ptr(ctx, lhs);
                self.add_edge(sp, lp, None);
            }
            Stmt::StaticStore { field, rhs } => {
                let rp = self.var_ptr(ctx, rhs);
                let sp = self.ptr(PtrKey::Static(field));
                self.add_edge(rp, sp, None);
            }
            Stmt::Cast { lhs, rhs, site } => {
                let target = self.program.cast(site).target_ty();
                let (rp, lp) = (self.var_ptr(ctx, rhs), self.var_ptr(ctx, lhs));
                // Cast edges filter: only objects that can pass the cast
                // flow onward (failing objects raise at runtime).
                self.add_edge(rp, lp, Some(target));
            }
            Stmt::Call(site_id) => {
                let program = self.program;
                let site = program.call_site(site_id);
                match (site.kind(), site.target()) {
                    (CallKind::Static, &CallTarget::Exact(target)) => {
                        let callee_ctx = self.selector.static_callee_context(
                            &mut self.arena,
                            ctx,
                            site_id,
                            target,
                        );
                        self.bind_call(ctx, site_id, callee_ctx, target, None);
                    }
                    (&CallKind::Special { recv }, &CallTarget::Exact(target)) => {
                        self.register_receiver_call(ctx, recv, site_id, Some(target));
                    }
                    (&CallKind::Virtual { recv }, CallTarget::Signature { .. }) => {
                        self.register_receiver_call(ctx, recv, site_id, None);
                    }
                    (kind, target) => {
                        unreachable!("malformed call site {site_id:?}: {kind:?} {target:?}")
                    }
                }
            }
            Stmt::Return { .. } => {
                // Handled at call-binding time via `return_vars`.
            }
        }
        let _ = method;
    }

    fn register_receiver_call(
        &mut self,
        ctx: CtxId,
        recv: VarId,
        site: CallSiteId,
        fixed_target: Option<MethodId>,
    ) {
        let rp = self.var_ptr(ctx, recv);
        let rp = self.rep(rp);
        let call = PendingCall {
            site,
            caller_ctx: ctx,
            fixed_target,
        };
        self.calls[rp.index()].push(call);
        let existing = self.pts[rp.index()].clone();
        self.dispatch_all(call, &existing);
    }

    /// Dispatches `call` on every receiver in `recvs`, in ascending id
    /// order, with the effect of dispatching them one at a time.
    ///
    /// The target is resolved once per run of receivers of one type
    /// (same-type ids are consecutive under hierarchy numbering).
    /// Consecutive receivers that pick the same target and callee
    /// context form a bind run: the first one goes through
    /// [`Solver::bind_call`], and since the rest would only re-bind the
    /// same edge — which adds nothing but themselves to `this` — they
    /// join `this` in one [`Solver::add_objects`] when the run ends.
    /// Nothing else happens between members of a run, so the batched
    /// seed leaves the same sets and worklist as one seed per receiver.
    fn dispatch_all(&mut self, call: PendingCall, recvs: &PtsSet<ObjId>) {
        self.call_receivers += recvs.len() as u64;
        let program = self.program;
        // (receiver type, its target — `None` when nothing to bind).
        let mut by_type: Option<(TypeId, Option<MethodId>)> = None;
        // The open bind run: (target, callee context) and the receivers
        // after its first.
        let mut run: Option<(MethodId, CtxId)> = None;
        let mut rest: Vec<ObjId> = Vec::new();
        for obj in recvs.iter() {
            let ty = self.objs.ty(obj);
            let target = match by_type {
                Some((t, target)) if t == ty => target,
                _ => {
                    let target = self.resolve_target(call, ty);
                    by_type = Some((ty, target));
                    target
                }
            };
            let Some(target) = target else {
                continue;
            };
            let callee_ctx = self.selector.callee_context(
                &mut self.arena,
                &self.objs,
                program,
                call.caller_ctx,
                call.site,
                obj,
                target,
            );
            if run == Some((target, callee_ctx)) {
                rest.push(obj);
                continue;
            }
            self.end_run(run, &mut rest);
            self.bind_call(call.caller_ctx, call.site, callee_ctx, target, Some(obj));
            run = Some((target, callee_ctx));
        }
        self.end_run(run, &mut rest);
    }

    /// Seeds the receivers a bind run deferred into its callee's `this`.
    fn end_run(&mut self, run: Option<(MethodId, CtxId)>, rest: &mut Vec<ObjId>) {
        if let (Some((target, ctx)), false) = (run, rest.is_empty()) {
            if let Some(this) = self.program.method(target).this() {
                let tp = self.var_ptr(ctx, this);
                self.add_objects(tp, rest.iter().copied());
            }
            rest.clear();
        }
    }

    /// The method `call` binds for a receiver of type `ty`, or `None`
    /// when there is nothing to bind: no implementation (e.g. an
    /// abstract class leak) or an abstract one.
    fn resolve_target(&mut self, call: PendingCall, ty: TypeId) -> Option<MethodId> {
        let program = self.program;
        let target = match call.fixed_target {
            Some(t) => t,
            None => match program.call_site(call.site).target() {
                CallTarget::Signature { name, arity } => {
                    (*self
                        .dispatch_cache
                        .entry((call.site, ty))
                        .or_insert_with(|| program.dispatch(ty, name, *arity)))?
                }
                CallTarget::Exact(t) => *t,
            },
        };
        (!program.method(target).is_abstract()).then_some(target)
    }

    /// Binds one call edge. The first binding of a `(caller context,
    /// site, callee context, target)` edge records it, marks the callee
    /// reachable, and adds the argument → parameter and return → result
    /// copy edges; every later binding of the same edge only seeds the
    /// receiver into `this`. Those copy edges depend only on the edge,
    /// and rows never lose an edge (collapse merges and renormalizes
    /// them, dropping only edges that became self-loops), so replaying
    /// them could not change the fixpoint.
    fn bind_call(
        &mut self,
        caller_ctx: CtxId,
        site_id: CallSiteId,
        callee_ctx: CtxId,
        target: MethodId,
        recv_obj: Option<ObjId>,
    ) {
        // Borrow the callee and site through a copied-out program
        // reference: the borrows outlive `&mut self` calls below, and
        // binding stays allocation-free.
        let program = self.program;
        let callee = program.method(target);
        let first = self
            .cs_cg_edges
            .insert((caller_ctx, site_id, callee_ctx, target));
        if first {
            self.call_binds += 1;
            self.cg_edges.insert((site_id, target));
            self.mark_reachable(callee_ctx, target);
        }
        // `this` receives exactly the dispatching object.
        if let (Some(this), Some(obj)) = (callee.this(), recv_obj) {
            let tp = self.var_ptr(callee_ctx, this);
            self.add_objects(tp, [obj]);
        }
        if !first {
            return;
        }
        // Arguments to parameters.
        let site = program.call_site(site_id);
        for (&arg, &param) in site.args().iter().zip(callee.params().iter()) {
            let ap = self.var_ptr(caller_ctx, arg);
            let pp = self.var_ptr(callee_ctx, param);
            self.add_edge(ap, pp, None);
        }
        // Returns to the result variable.
        if let Some(result) = site.result() {
            let rp = self.var_ptr(caller_ctx, result);
            for k in 0..self.return_vars[target.index()].len() {
                let rv = self.return_vars[target.index()][k];
                let rvp = self.var_ptr(callee_ctx, rv);
                self.add_edge(rvp, rp, None);
            }
        }
    }
}

/// Convenience: runs the context-insensitive allocation-site pre-analysis
/// the Mahjong pipeline starts from (paper Section 3.1, "ci").
///
/// # Errors
///
/// Returns [`Unscalable`] if the budget is exhausted (the pre-analysis is
/// given the same default budget as any other run).
pub fn pre_analysis(program: &Program) -> Result<AnalysisResult, Unscalable> {
    let _phase = obs::span("pre_analysis");
    AnalysisConfig::new(
        crate::context::ContextInsensitive,
        crate::heap::AllocSiteAbstraction,
    )
    .run(program)
}

#[cfg(test)]
thread_local! {
    /// Sweeps that passed [`Solver::check_sweep_oracle`] on this thread.
    static SWEEPS_CHECKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// `(call_binds, call_receivers)` of the last run finished on this
    /// thread.
    static LAST_CALL_COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// Seal sweeps whose interner-derived physical footprint matched
    /// the address-dedup count on this thread.
    static PHYSICAL_WORD_CHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::context::{
        CallSiteSensitive, ContextInsensitive, CtxElem, ObjectSensitive, TypeSensitive,
    };
    use crate::heap::AllocSiteAbstraction;
    use crate::naive::solve_naive;

    fn run_all_selectors(name: &str, program: &Program) {
        fn run<S: ContextSelector>(
            selector: S,
            threads: usize,
            program: &Program,
        ) -> Result<(), Unscalable> {
            AnalysisConfig::new(selector, AllocSiteAbstraction)
                .threads(threads)
                .budget(Budget::seconds(300))
                .run(program)
                .map(drop)
        }
        for threads in [1, 2] {
            let runs = [
                ("ci", run(ContextInsensitive, threads, program)),
                ("2cs", run(CallSiteSensitive::new(2), threads, program)),
                ("2obj", run(ObjectSensitive::new(2), threads, program)),
            ];
            for (analysis, r) in runs {
                if let Err(e) = r {
                    panic!("{name} {analysis} at {threads} threads: {e}");
                }
            }
        }
    }

    /// A component LCD collapsed between sweeps keeps the highest level
    /// any member held, even when the surviving representative was the
    /// lower one: an older edge from outside the next sweep's region
    /// may point at the higher member.
    #[test]
    fn lcd_collapse_keeps_its_members_highest_level() {
        let program = jir::parse("class A { entry static method main() { return; } }").unwrap();
        let mut s = Solver::new(
            &program,
            &ContextInsensitive,
            &AllocSiteAbstraction,
            Budget::default(),
            1,
            Numbering::default(),
        );
        let ctx = s.arena.empty();
        let [u, a, b] = [0, 1, 2].map(|v| s.var_ptr(ctx, VarId::from_usize(v)));
        s.add_edge(u, a, None);
        s.collapse_sweep();
        assert_eq!((s.rank(u), s.rank(a), s.rank(b)), (0, 1, 0));
        // New cycle a ⇄ b, found by LCD from the edge a → b: the cycle
        // is [b, a], so b (level 0) survives as the representative.
        s.add_edge(a, b, None);
        s.add_edge(b, a, None);
        s.lcd_candidates.push((a, b));
        s.apply_lcd();
        assert_eq!(s.rep(a), b);
        s.collapse_sweep();
        assert!(s.rank(u) < s.rank(a), "u -> a must still climb");
    }

    /// Every sweep on the corpus, the paper's figures, and two small
    /// benchmark programs leaves no copy cycle anywhere in the graph and
    /// a level order every unfiltered edge climbs (the oracle runs
    /// inside each sweep and panics on a violation).
    #[test]
    fn region_sweeps_match_full_graph_oracle() {
        for (name, program) in &corpus_programs() {
            run_all_selectors(name, program);
        }
        let figures = [
            ("figure1", workloads::figures::figure1()),
            ("figure3", workloads::figures::figure3()),
            ("figure6", workloads::figures::figure6()),
            ("figure7", workloads::figures::figure7()),
        ];
        for (name, program) in &figures {
            run_all_selectors(name, program);
        }
        for name in ["luindex", "lusearch"] {
            let before = SWEEPS_CHECKED.with(|c| c.get());
            run_all_selectors(name, &workloads::dacapo::workload(name, 1).program);
            let checked = SWEEPS_CHECKED.with(|c| c.get()) - before;
            assert!(
                checked > 0,
                "{name}@1 never swept; the oracle checked nothing"
            );
        }
    }

    fn corpus_programs() -> Vec<(String, Program)> {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut files: Vec<_> = std::fs::read_dir(corpus)
            .expect("corpus directory")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "jir"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no corpus files");
        files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path).expect("readable corpus file");
                let program = jir::parse(&text).expect("corpus file parses");
                (path.display().to_string(), program)
            })
            .collect()
    }

    /// Every full call binding creates a context-sensitive call-graph
    /// edge: a repeat dispatch never re-binds arguments and returns.
    #[test]
    fn each_call_edge_is_bound_once() {
        fn check<S: ContextSelector + Copy>(
            label: &str,
            selector: S,
            program: &Program,
        ) -> (u64, u64) {
            let mut counts = (0, 0);
            for threads in [1, 2] {
                let result = AnalysisConfig::new(selector, AllocSiteAbstraction)
                    .threads(threads)
                    .budget(Budget::seconds(300))
                    .run(program)
                    .unwrap_or_else(|e| panic!("{label} at {threads} threads: {e}"));
                let (binds, receivers) = LAST_CALL_COUNTS.with(|c| c.get());
                assert_eq!(
                    binds,
                    result.cs_call_graph_edge_count() as u64,
                    "{label} at {threads} threads: full bindings vs call-graph edges"
                );
                counts = (binds, receivers);
            }
            counts
        }
        let mut programs = corpus_programs();
        programs.push((
            "luindex@1".to_owned(),
            workloads::dacapo::workload("luindex", 1).program,
        ));
        for (name, program) in &programs {
            let runs = [
                check(&format!("{name} ci"), ContextInsensitive, program),
                check(&format!("{name} 2cs"), CallSiteSensitive::new(2), program),
                check(&format!("{name} 2obj"), ObjectSensitive::new(2), program),
                check(&format!("{name} 2type"), TypeSensitive::new(2), program),
            ];
            if name == "luindex@1" {
                for (binds, receivers) in runs {
                    assert!(
                        receivers > binds,
                        "luindex@1: {receivers} receivers, {binds} binds"
                    );
                }
            }
        }
    }

    /// The interner's live words equal the address-dedup footprint of
    /// the rows after every seal sweep (the check runs inside
    /// `seal_dirty` and panics on a mismatch).
    #[test]
    fn interner_live_words_match_address_dedup() {
        let mut programs = corpus_programs();
        programs.push((
            "luindex@1".to_owned(),
            workloads::dacapo::workload("luindex", 1).program,
        ));
        fn check<S: ContextSelector + Copy>(label: &str, selector: S, program: &Program) {
            for threads in [1, 2] {
                let before = PHYSICAL_WORD_CHECKS.with(|c| c.get());
                AnalysisConfig::new(selector, AllocSiteAbstraction)
                    .threads(threads)
                    .budget(Budget::seconds(300))
                    .run(program)
                    .unwrap_or_else(|e| panic!("{label} at {threads} threads: {e}"));
                let checked = PHYSICAL_WORD_CHECKS.with(|c| c.get()) - before;
                assert!(checked > 0, "{label} at {threads} threads: no seal was checked");
            }
        }
        for (name, program) in &programs {
            check(&format!("{name} ci"), ContextInsensitive, program);
            check(&format!("{name} 2cs"), CallSiteSensitive::new(2), program);
            check(&format!("{name} 2obj"), ObjectSensitive::new(2), program);
        }
    }

    /// Per-context points-to facts, keyed by context elements so the
    /// two solvers' id assignments need not agree.
    type Facts = BTreeMap<(Vec<CtxElem>, VarId), BTreeSet<(Vec<CtxElem>, AllocId)>>;

    /// One virtual site whose receivers span four types: three share
    /// the inherited `Shape.visit` and `Circle` overrides it. Only
    /// `Circle` implements `area`; the other three resolve it to the
    /// abstract `Shape.area`, which a special call also names directly.
    /// `Node.m` calls itself with `x.m(this)`. `go` is called from two
    /// sites so call-site contexts differ.
    const DISPATCH_JIR: &str = "
        abstract class Shape {
          field next: Shape;
          abstract method area(this);
          method visit(this, v) { r = this.next; return r; }
          method me(this) { return this; }
        }
        class Square extends Shape { }
        class Rect extends Shape { }
        class Tri extends Shape { }
        class Circle extends Shape {
          method visit(this, v) { x = new Square; return v; }
          method area(this) { return this; }
        }
        class Node {
          field peer: Node;
          method m(this, other) {
            p = other.peer;
            q = virt p.m(this);
            return p;
          }
        }
        class Main {
          static method go(s, a) {
            r = virt s.visit(a);
            t = virt s.area();
            u = virt s.me();
            w = special s.Shape::me();
            z = special s.Shape::area();
            return r;
          }
          entry static method main() {
            a = new Square;
            b = new Rect;
            c = new Tri;
            d = new Circle;
            s = a;
            s = b;
            s = c;
            s = d;
            a.next = b;
            b.next = c;
            c.next = d;
            h = new Rect;
            h.next = s;
            late = h.next;
            g1 = call Main::go(s, a);
            g2 = call Main::go(late, c);
            n1 = new Node;
            n2 = new Node;
            n1.peer = n2;
            n2.peer = n1;
            k = virt n1.m(n2);
            return;
          }
        }";

    /// The run-grouped dispatch gives the naive reference solver's
    /// answers: per-context points-to sets, reachable contexts and
    /// methods, and call-graph edges.
    #[test]
    fn grouped_dispatch_matches_naive_solver() {
        fn check<S: ContextSelector + Copy>(label: &str, selector: S, program: &Program) {
            let naive = solve_naive(program, &selector, &AllocSiteAbstraction);
            let mut want = Facts::new();
            for (key, set) in &naive.pts {
                if let (PtrKey::Var(ctx, var), false) = (*key, set.is_empty()) {
                    let objs = set
                        .iter()
                        .map(|&o| {
                            (
                                naive.arena.elems(naive.objs.heap_context(o)).to_vec(),
                                naive.objs.alloc(o),
                            )
                        })
                        .collect();
                    want.insert((naive.arena.elems(ctx).to_vec(), var), objs);
                }
            }
            let want_edges: BTreeSet<_> = naive.call_edges.iter().copied().collect();
            for threads in [1, 2] {
                let result = AnalysisConfig::new(selector, AllocSiteAbstraction)
                    .threads(threads)
                    .run(program)
                    .expect("fits the budget");
                let arena = result.contexts();
                let mut got = Facts::new();
                for c in 0..arena.len() {
                    let ctx = CtxId(c as u32);
                    for var in (0..program.var_count()).map(VarId::from_usize) {
                        let set = result.points_to(ctx, var);
                        if set.is_empty() {
                            continue;
                        }
                        let objs = set
                            .iter()
                            .map(|o| {
                                (
                                    arena.elems(result.obj_heap_context(o)).to_vec(),
                                    result.obj_alloc(o),
                                )
                            })
                            .collect();
                        got.insert((arena.elems(ctx).to_vec(), var), objs);
                    }
                }
                assert_eq!(got, want, "{label} at {threads} threads: points-to");
                let edges: BTreeSet<_> = result.call_graph_edges().collect();
                assert_eq!(
                    edges, want_edges,
                    "{label} at {threads} threads: call graph"
                );
                assert_eq!(
                    result.reachable_context_count(),
                    naive.reachable.len(),
                    "{label} at {threads} threads: reachable contexts"
                );
            }
        }
        let program = jir::parse(DISPATCH_JIR).expect("dispatch program parses");
        check("ci", ContextInsensitive, &program);
        check("2cs", CallSiteSensitive::new(2), &program);
        check("2obj", ObjectSensitive::new(2), &program);
    }
}
