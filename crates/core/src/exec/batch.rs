//! Phased multi-kernel submission: several dependent kernels enter the
//! engine as *one* batch.
//!
//! Apps like LULESH launch a handful of small, sequentially dependent
//! kernels per timestep; submitting each through
//! [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts)
//! pays one worker-pool handoff (dispatch, join, fold) per kernel. This
//! module instead resolves every kernel up front ([`prepare`]) and submits
//! all of them as the phases of a single
//! [`ExecEngine::run_phases`](crate::exec::engine::ExecEngine::run_phases)
//! call ([`run_batch`]): workers stay warm across the inter-kernel
//! barriers, and the per-timestep handoff cost is paid once instead of
//! five times.
//!
//! Batched bodies must have [`StoreVisibility::BlockPrivate`]: their stores
//! commit inline through `store_shared` (interior-mutable state such as
//! [`BlockField`](crate::exec::body::BlockField)), which is what makes the
//! next phase's reads of this phase's outputs well-defined — the barrier
//! between phases gives the happens-before edge. Within a phase the usual
//! block-decomposition contract applies, so each kernel's walk — and
//! therefore the whole batch — is bit-identical to submitting the kernels
//! one by one on either executor. As in the per-kernel walk, blocks of
//! such bodies run concurrently only when every launch of the batch is an
//! undisturbed `BlockLocal` partition; otherwise the batch runs its
//! kernels in order on the calling thread.

use crate::exec::body::{RegionBody, SharedAccess, StoreVisibility};
use crate::exec::engine::engine;
use crate::exec::walk::{
    block_partitioned, chunk_ranges, walk_block, Geom, WalkArena, AUTO_FANOUT_MIN_WARP_STEPS,
};
use crate::exec::{resolve, ExecOptions, Executor, ResolvedKernel, ResolvedPolicy};
use crate::region::{ApproxRegion, RegionError};
use gpu_sim::{BlockAccumulator, DeviceSpec, KernelExec, KernelRecord};

/// One kernel of a batch: the dispatch-stage output plus the shared body it
/// will run against. Build with [`prepare`]; run with [`run_batch`].
pub struct BatchKernel<'a> {
    resolved: ResolvedKernel,
    body: &'a dyn RegionBody,
}

/// Resolve one kernel of a batch (the dispatch stage of
/// [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts),
/// hoisted out of the submission loop). Fails eagerly on anything the
/// per-kernel entry point would reject, plus on bodies whose stores cannot
/// commit inline between phases.
pub fn prepare<'a>(
    spec: &DeviceSpec,
    launch: &gpu_sim::LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &'a dyn RegionBody,
    opts: &ExecOptions,
) -> Result<BatchKernel<'a>, RegionError> {
    if body.store_visibility() != StoreVisibility::BlockPrivate {
        return Err(RegionError::Invalid(
            "batched kernels need StoreVisibility::BlockPrivate: later phases read earlier \
             phases' outputs, so stores must commit inline through store_shared"
                .into(),
        ));
    }
    let resolved = resolve(spec, launch, region, body, opts.serialized_taf)?;
    Ok(BatchKernel { resolved, body })
}

impl ResolvedPolicy {
    /// Walk blocks `[lo, hi)` against a shared body (stores through
    /// `store_shared`), one fresh accumulator per block, one arena for the
    /// whole range. The monomorphized-per-technique inner loop of
    /// [`run_batch`]'s phase tasks.
    fn walk_range_shared(
        &self,
        geom: &Geom,
        body: &dyn RegionBody,
        lo: u32,
        hi: u32,
    ) -> Vec<BlockAccumulator> {
        fn go<P: crate::exec::policy::TechniquePolicy>(
            policy: &P,
            geom: &Geom,
            body: &dyn RegionBody,
            lo: u32,
            hi: u32,
        ) -> Vec<BlockAccumulator> {
            let mut arena = WalkArena::new(geom);
            let accs = (lo..hi)
                .map(|b| {
                    let mut acc =
                        BlockAccumulator::new(geom.warps_per_block as usize, geom.spec.costs);
                    let mut access = SharedAccess { body };
                    walk_block(geom, policy, &mut access, b, &mut arena, &mut acc);
                    acc
                })
                .collect();
            crate::exec::walk::flush_memo_stats(&mut arena);
            accs
        }
        match self {
            ResolvedPolicy::Accurate(p) => go(p, geom, body, lo, hi),
            ResolvedPolicy::Perfo(p) => go(p, geom, body, lo, hi),
            ResolvedPolicy::Taf(p) => go(p, geom, body, lo, hi),
            ResolvedPolicy::SerializedTaf(p) => go(p, geom, body, lo, hi),
            ResolvedPolicy::Iact(p) => go(p, geom, body, lo, hi),
        }
    }
}

/// Run `kernels` in order as the phases of one engine submission and return
/// each kernel's record. Equivalent, bit for bit, to running them one by
/// one through the per-kernel entry point with the same options.
pub fn run_batch(
    spec: &DeviceSpec,
    kernels: &[BatchKernel<'_>],
    opts: &ExecOptions,
) -> Result<Vec<KernelRecord>, RegionError> {
    // Validate every launch before any phase runs: a batch must fail
    // atomically, not after earlier kernels already committed stores.
    let mut execs = Vec::with_capacity(kernels.len());
    let mut geoms = Vec::with_capacity(kernels.len());
    for k in kernels {
        execs.push(KernelExec::new(
            spec,
            &k.resolved.launch,
            k.resolved.shared,
        )?);
        geoms.push(Geom::new(spec, &k.resolved.launch, k.resolved.item_lo));
    }

    let width = engine().width_for(opts);
    let modeled: usize = geoms
        .iter()
        .map(|g| g.n_blocks as usize * g.warps_per_block as usize * g.steps)
        .sum();
    let wants_fan_out = match opts.executor {
        Executor::Sequential => false,
        Executor::ParallelBlocks => true,
        Executor::Auto => modeled >= AUTO_FANOUT_MIN_WARP_STEPS,
    };
    // Batched bodies are BlockPrivate: blocks may only run concurrently
    // when every kernel's launch partitions items by block.
    let parallel =
        wants_fan_out && width > 1 && !engine().is_nested() && geoms.iter().all(block_partitioned);

    let per_kernel: Vec<Vec<Vec<BlockAccumulator>>> = if parallel {
        let chunks: Vec<Vec<(u32, u32)>> = geoms
            .iter()
            .map(|g| chunk_ranges(g.n_blocks, width))
            .collect();
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        engine().run_phases(&sizes, width, |p, j| {
            let (lo, hi) = chunks[p][j];
            kernels[p]
                .resolved
                .policy
                .walk_range_shared(&geoms[p], kernels[p].body, lo, hi)
        })
    } else {
        // The sequential reference: kernels in order, each walked in one
        // range. Same walk, same shared-store commits, no handoff.
        kernels
            .iter()
            .zip(&geoms)
            .map(|(k, g)| {
                vec![k
                    .resolved
                    .policy
                    .walk_range_shared(g, k.body, 0, g.n_blocks)]
            })
            .collect()
    };

    Ok(execs
        .into_iter()
        .zip(per_kernel)
        .map(|(mut exec, chunks)| {
            // Chunks come back in chunk (= ascending block) order.
            for (b, acc) in chunks.iter().flatten().enumerate() {
                exec.merge_block(b as u32, acc);
            }
            exec.finish()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::approx_parallel_for_opts;
    use crate::exec::body::BlockField;
    use crate::region::ApproxRegion;
    use gpu_sim::{AccessPattern, CostProfile, LaunchConfig};

    /// Two dependent stages over block-private fields: stage 1 writes `a`,
    /// stage 2 reads `a` and writes `b`.
    struct StageOne {
        a: BlockField,
    }

    impl RegionBody for StageOne {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            out[0] = (i as f64).sqrt() + 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.store_shared(i, out);
        }
        fn store_visibility(&self) -> StoreVisibility {
            StoreVisibility::BlockPrivate
        }
        fn store_shared(&self, i: usize, out: &[f64]) {
            self.a.set(i, out[0]);
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new()
                .flops(4.0)
                .global_write(lanes, 8, AccessPattern::Coalesced)
        }
    }

    struct StageTwo<'m> {
        a: &'m BlockField,
        b: BlockField,
    }

    impl RegionBody for StageTwo<'_> {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            out[0] = self.a.get(i) * 2.0 - 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.store_shared(i, out);
        }
        fn store_visibility(&self) -> StoreVisibility {
            StoreVisibility::BlockPrivate
        }
        fn store_shared(&self, i: usize, out: &[f64]) {
            self.b.set(i, out[0]);
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new()
                .flops(4.0)
                .global_read(lanes, 8, AccessPattern::Coalesced)
                .global_write(lanes, 8, AccessPattern::Coalesced)
        }
    }

    fn run_pair(opts: &ExecOptions, batched: bool) -> (Vec<KernelRecord>, Vec<f64>) {
        let spec = DeviceSpec::v100();
        let n = 1000;
        let lc = LaunchConfig::block_local(n, 64, 8);
        let one = StageOne {
            a: BlockField::from_vec(vec![0.0; n]),
        };
        if batched {
            let two_field = BlockField::from_vec(vec![0.0; n]);
            let two = StageTwo {
                a: &one.a,
                b: two_field,
            };
            let batch = [
                prepare(&spec, &lc, None, &one, opts).unwrap(),
                prepare(&spec, &lc, None, &two, opts).unwrap(),
            ];
            let records = run_batch(&spec, &batch, opts).unwrap();
            let out = two.b.to_vec(0..n);
            (records, out)
        } else {
            let mut one = one;
            let r1 = approx_parallel_for_opts(&spec, &lc, None, &mut one, opts).unwrap();
            let mut two = StageTwo {
                a: &one.a,
                b: BlockField::from_vec(vec![0.0; n]),
            };
            let r2 = approx_parallel_for_opts(&spec, &lc, None, &mut two, opts).unwrap();
            let out = two.b.to_vec(0..n);
            (vec![r1, r2], out)
        }
    }

    #[test]
    fn batch_matches_one_by_one_submission() {
        for executor in [
            Executor::Sequential,
            Executor::ParallelBlocks,
            Executor::Auto,
        ] {
            let opts = ExecOptions {
                executor,
                threads: Some(4),
                ..ExecOptions::default()
            };
            let (batch_records, batch_out) = run_pair(&opts, true);
            let (solo_records, solo_out) = run_pair(&opts, false);
            assert_eq!(batch_records, solo_records, "{executor:?}");
            assert!(
                batch_out
                    .iter()
                    .zip(&solo_out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{executor:?}: batched outputs diverged"
            );
        }
    }

    #[test]
    fn batch_rejects_buffering_bodies() {
        struct Indep;
        impl RegionBody for Indep {
            fn out_dim(&self) -> usize {
                1
            }
            fn compute(&self, _i: usize, out: &mut [f64]) {
                out[0] = 0.0;
            }
            fn store(&mut self, _i: usize, _out: &[f64]) {}
            fn accurate_cost(&self, _lanes: u32, _spec: &DeviceSpec) -> CostProfile {
                CostProfile::new().flops(1.0)
            }
        }
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::one_item_per_thread(64, 32);
        let err = prepare(&spec, &lc, None, &Indep, &ExecOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn batch_with_approx_region_matches_solo() {
        let spec = DeviceSpec::v100();
        let n = 600;
        let lc = LaunchConfig::block_local(n, 64, 4);
        let region = ApproxRegion::memo_out(2, 16, 0.8);
        let run = |opts: &ExecOptions| {
            let one = StageOne {
                a: BlockField::from_vec(vec![0.0; n]),
            };
            let batch = [prepare(&spec, &lc, Some(&region), &one, opts).unwrap()];
            let mut records = run_batch(&spec, &batch, opts).unwrap();
            (records.remove(0), one.a.to_vec(0..n))
        };
        fn solo(
            spec: &DeviceSpec,
            lc: &LaunchConfig,
            region: &ApproxRegion,
            opts: &ExecOptions,
            n: usize,
        ) -> (KernelRecord, Vec<f64>) {
            let mut one = StageOne {
                a: BlockField::from_vec(vec![0.0; n]),
            };
            let r = approx_parallel_for_opts(spec, lc, Some(region), &mut one, opts).unwrap();
            (r, one.a.to_vec(0..n))
        }
        for executor in [Executor::Sequential, Executor::ParallelBlocks] {
            let opts = ExecOptions {
                executor,
                threads: Some(3),
                ..ExecOptions::default()
            };
            let (br, bo) = run(&opts);
            let (sr, so) = solo(&spec, &lc, &region, &opts, n);
            assert_eq!(br, sr, "{executor:?}");
            assert!(
                bo.iter().zip(&so).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{executor:?}"
            );
        }
    }
}
