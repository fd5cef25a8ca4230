//! The body contracts the pipeline executes: [`RegionBody`] for grid-stride
//! parallel-for regions and [`BlockTaskBody`] for block-cooperative tasks.
//!
//! Both traits split a region into a *pure* compute path (`compute`, taking
//! `&self`, so independent blocks can run it from separate threads) and a
//! mutable commit path (`store`, taking `&mut self`). Under the
//! [`Executor::Sequential`](crate::exec::Executor::Sequential) reference
//! executor stores are applied inline as the walk proceeds; under
//! [`Executor::ParallelBlocks`](crate::exec::Executor::ParallelBlocks) the
//! commit route is chosen by the body's [`StoreVisibility`]: independent
//! bodies buffer each block's stores in a private [`StoreBuffer`] that the
//! runtime replays in block order after all blocks finish, while
//! block-private bodies (Leukocyte's in-kernel Jacobi, whose later sweeps
//! re-read their own block's stores) commit inline into per-block
//! partitioned state ([`BlockField`]) through
//! [`RegionBody::store_shared`]. Either way the call sequence each block
//! observes is exactly the sequential walk's, so outputs are
//! bit-identical.

use crate::exec::charge::StoreBuffer;
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a region's `store` calls are allowed to feed back into `compute`
/// within one launch — the property that decides how the parallel executor
/// may commit them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreVisibility {
    /// `compute` never reads in-launch stores. The parallel executor
    /// buffers each block's stores privately and replays them in block
    /// order after the join (the default).
    #[default]
    Independent,
    /// `compute` reads in-launch stores, but only those of its *own* block,
    /// held in per-block private state reachable through `&self`
    /// ([`RegionBody::store_shared`], typically backed by a [`BlockField`]).
    /// Legal only under [`gpu_sim::Schedule::BlockLocal`]-style launches
    /// where blocks own disjoint item ranges (Leukocyte's in-kernel Jacobi
    /// sweeps); the parallel executor commits such stores inline from the
    /// block's worker, so the block sees its own writes immediately. Any
    /// other launch — including a `BlockLocal` one that perforation
    /// resolves to a grid-stride walk — runs on the sequential reference.
    BlockPrivate,
    /// `compute` reads stores of other blocks. Such bodies always execute
    /// on the sequential reference executor, because no buffering or
    /// partitioning discipline can make their cross-block timing
    /// deterministic.
    Global,
}

/// A field partitioned into per-block private slices, giving a region body
/// interior-mutable storage that independent block workers can write
/// concurrently.
///
/// The contract mirrors GPU shared/global memory under
/// `Schedule::BlockLocal`: while a kernel is in flight, the thread walking
/// block `b` reads and writes only `b`'s partition, so every index has at
/// most one writer. Values are stored as their IEEE-754 bit patterns in
/// relaxed atomics — races are impossible by construction and every
/// round-trip is bit-exact, which preserves the executor-equivalence
/// guarantee.
#[derive(Debug)]
pub struct BlockField {
    bits: Vec<AtomicU64>,
}

impl BlockField {
    /// A field initialized from `init` (e.g. the input image).
    pub fn from_vec(init: Vec<f64>) -> Self {
        BlockField {
            bits: init
                .into_iter()
                .map(|v| AtomicU64::new(v.to_bits()))
                .collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    // get/set are the per-scalar hot path of every field-backed body;
    // without the inline hint they stay opaque calls across the crate
    // boundary and field reads dominate the kernel walk.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.bits[i].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        self.bits[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Snapshot a contiguous range (e.g. one block's slice after launch).
    pub fn to_vec(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range.map(|i| self.get(i)).collect()
    }
}

/// The annotated code region: the accurate path, its declared inputs and
/// outputs, and its cost.
///
/// This is the Rust rendering of what HPAC's Clang pass captures as a
/// closure. `compute` evaluates the region for one item; `store` commits an
/// output vector (both paths call it — the approximate path passes the
/// memoized vector). Cost methods describe one warp-step's work so the
/// engine can model kernel time:
///
/// * [`RegionBody::accurate_cost`] — the full accurate body including its
///   global reads and writes;
/// * [`RegionBody::input_cost`] — only the gathering of the declared region
///   inputs (paid by iACT's activation on every invocation);
/// * [`RegionBody::store_cost`] — only the write of the region outputs
///   (paid by the approximate path when it stores a memoized value).
pub trait RegionBody: Sync {
    /// Scalars in the declared region input (`in(...)` clause). 0 means the
    /// region declares no inputs (TAF and perforation need none).
    fn in_dim(&self) -> usize {
        0
    }

    /// Scalars in the declared region output (`out(...)` clause).
    fn out_dim(&self) -> usize;

    /// Gather the region inputs of item `i` into `buf` (`len == in_dim`).
    fn inputs(&self, _i: usize, _buf: &mut [f64]) {
        unreachable!("region declares no inputs; implement `inputs` to use iACT");
    }

    /// Execute the accurate path for item `i`, writing outputs to `out`.
    ///
    /// Must depend only on `i` and on state that existed before the kernel
    /// launch — not on what `store` wrote for other items — unless
    /// [`RegionBody::store_visibility`] says otherwise.
    fn compute(&self, i: usize, out: &mut [f64]);

    /// Commit the region outputs for item `i`.
    fn store(&mut self, i: usize, out: &[f64]);

    /// How this body's stores feed back into `compute` within one launch.
    /// [`StoreVisibility::Independent`] (the default) lets the parallel
    /// executor buffer stores per block; [`StoreVisibility::BlockPrivate`]
    /// commits them inline through [`RegionBody::store_shared`];
    /// [`StoreVisibility::Global`] pins the body to the sequential
    /// reference executor.
    fn store_visibility(&self) -> StoreVisibility {
        StoreVisibility::Independent
    }

    /// Commit the region outputs for item `i` through a shared reference,
    /// into per-block private state (see [`StoreVisibility::BlockPrivate`];
    /// typically a [`BlockField`] write). Required exactly when
    /// `store_visibility()` returns `BlockPrivate`; `store` should delegate
    /// here so both executors commit through the same path.
    fn store_shared(&self, _i: usize, _out: &[f64]) {
        unreachable!("store_shared is required for StoreVisibility::BlockPrivate bodies");
    }

    /// Cost of one warp executing the accurate path with `lanes` active
    /// lanes (including the body's own global traffic).
    fn accurate_cost(&self, lanes: u32, spec: &DeviceSpec) -> CostProfile;

    /// Cost of gathering the declared inputs for `lanes` lanes.
    fn input_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_read(lanes, (self.in_dim() * 8) as u32, AccessPattern::Coalesced)
    }

    /// Cost of writing the declared outputs for `lanes` lanes.
    fn store_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_write(
            lanes,
            (self.out_dim() * 8) as u32,
            AccessPattern::Coalesced,
        )
    }

    /// `Some(reason)` when iACT cannot apply (the paper's MiniFE case:
    /// "hpac-offload only supports computations with uniform input sizes").
    fn iact_incompatibility(&self) -> Option<String> {
        None
    }
}

/// A cooperative block task: one thread block computes one work item
/// (Binomial Options' one-block-per-option pattern). Decisions are
/// block-scoped — there is one AC state per block and the whole block takes
/// one path.
pub trait BlockTaskBody: Sync {
    /// Scalars in the declared task input.
    fn in_dim(&self) -> usize {
        0
    }

    /// Scalars in the declared task output.
    fn out_dim(&self) -> usize;

    /// Gather the task inputs.
    fn inputs(&self, _task: usize, _buf: &mut [f64]) {
        unreachable!("task declares no inputs; implement `inputs` to use iACT");
    }

    /// Execute the accurate task, writing outputs to `out`.
    ///
    /// Tasks are independent by the pattern's contract: `compute` must
    /// depend only on `task` and pre-launch state, never on what `store`
    /// committed for another task of the same launch.
    fn compute(&self, task: usize, out: &mut [f64]);

    /// Commit the task outputs.
    fn store(&mut self, task: usize, out: &[f64]);

    /// Per-warp cost of one accurate task execution (the block's warps
    /// cooperate; each warp is charged this profile).
    fn task_cost_per_warp(&self, spec: &DeviceSpec) -> CostProfile;

    /// Cost of gathering task inputs (one warp does it).
    fn input_cost(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_read(1, (self.in_dim() * 8) as u32, AccessPattern::Broadcast)
    }

    /// Cost of writing task outputs (one warp does it).
    fn store_cost(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_write(1, (self.out_dim() * 8) as u32, AccessPattern::Broadcast)
    }
}

/// How the walker reaches the body: the sequential executor commits stores
/// inline through `&mut`; the parallel executor shares the body immutably
/// and buffers stores per block.
pub(crate) trait BodyAccess {
    fn body(&self) -> &dyn RegionBody;
    fn compute(&mut self, i: usize, out: &mut [f64]);
    fn store(&mut self, i: usize, out: &[f64]);
}

pub(crate) struct InlineAccess<'a> {
    pub body: &'a mut dyn RegionBody,
}

impl BodyAccess for InlineAccess<'_> {
    fn body(&self) -> &dyn RegionBody {
        self.body
    }

    fn compute(&mut self, i: usize, out: &mut [f64]) {
        self.body.compute(i, out);
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.body.store(i, out);
    }
}

pub(crate) struct BufferedAccess<'a> {
    pub body: &'a dyn RegionBody,
    /// Borrowed so one executor task can append several blocks' stores into
    /// a single buffer (replayed in block order after the join) instead of
    /// allocating a buffer per block.
    pub buffer: &'a mut StoreBuffer,
}

impl<'a> BufferedAccess<'a> {
    pub fn new(body: &'a dyn RegionBody, buffer: &'a mut StoreBuffer) -> Self {
        debug_assert_eq!(buffer.out_dim(), body.out_dim());
        BufferedAccess { body, buffer }
    }
}

impl BodyAccess for BufferedAccess<'_> {
    fn body(&self) -> &dyn RegionBody {
        self.body
    }

    fn compute(&mut self, i: usize, out: &mut [f64]) {
        self.body.compute(i, out);
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.buffer.push(i, out);
    }
}

/// Parallel-executor access for [`StoreVisibility::BlockPrivate`] bodies:
/// stores commit inline through `store_shared` into the body's per-block
/// partitioned state, so the block's later `compute` calls see them.
pub(crate) struct SharedAccess<'a> {
    pub body: &'a dyn RegionBody,
}

impl BodyAccess for SharedAccess<'_> {
    fn body(&self) -> &dyn RegionBody {
        self.body
    }

    fn compute(&mut self, i: usize, out: &mut [f64]) {
        self.body.compute(i, out);
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.body.store_shared(i, out);
    }
}
