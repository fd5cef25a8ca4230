//! SM-level scheduling and latency-hiding model.
//!
//! The central question the paper's Fig 8c poses — how does approximation
//! interact with the GPU's ability to hide memory latency? — is answered
//! here with a Hong–Kim-style analytical occupancy model:
//!
//! * Blocks are distributed round-robin over SMs and executed in *waves* of
//!   at most `blocks_per_sm` resident blocks (limited by the device's block,
//!   warp, and shared-memory budgets — so large AC state lowers occupancy).
//! * A wave's duration is `max(Σ issue cycles, max_w(issue_w + latency_w))`:
//!   with many resident warps the SM is issue-throughput-bound and latency is
//!   hidden; with few it is latency-bound.
//!
//! This single mechanism yields the paper's observations that speedup
//! declines once items-per-thread grows past the point where too few blocks
//! exist to hide latency, and that the decline starts *earlier on AMD*
//! because the MI250X has more SMs to keep fed.

use crate::cost::WarpCycles;
use crate::dim::LaunchConfig;
use crate::spec::DeviceSpec;

/// Why block residency was limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyLimiter {
    BlocksPerSm,
    WarpsPerSm,
    SharedMemory,
}

/// How many blocks can be resident on one SM for this launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    pub blocks_per_sm: u32,
    pub limiter: ResidencyLimiter,
}

/// Compute block residency given per-block shared-memory use.
pub fn residency(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    shared_bytes_per_block: usize,
) -> Residency {
    let warps_per_block = launch.warps_per_block(spec).max(1);
    let by_blocks = spec.max_blocks_per_sm;
    let by_warps = (spec.max_warps_per_sm / warps_per_block).max(1);
    let by_shared = spec
        .shared_mem_per_sm
        .checked_div(shared_bytes_per_block)
        .map_or(u32::MAX, |b| (b as u32).max(1));
    let blocks = by_blocks.min(by_warps).min(by_shared).max(1);
    let limiter = if blocks == by_shared && by_shared <= by_blocks && by_shared <= by_warps {
        ResidencyLimiter::SharedMemory
    } else if blocks == by_warps && by_warps <= by_blocks {
        ResidencyLimiter::WarpsPerSm
    } else {
        ResidencyLimiter::BlocksPerSm
    };
    Residency {
        blocks_per_sm: blocks,
        limiter,
    }
}

/// Timing breakdown of one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Modeled kernel duration in device cycles (excluding launch overhead).
    pub cycles: f64,
    /// Kernel duration in seconds including launch overhead.
    pub seconds: f64,
    /// Number of scheduling waves on the busiest SM.
    pub waves: u32,
    /// Blocks resident per SM.
    pub residency: Residency,
    /// Fraction of the busiest SM's time that was exposed (unhidden) latency.
    pub exposed_latency_fraction: f64,
}

/// Model the kernel duration for per-warp cycle totals.
///
/// `warps` holds the accumulated [`WarpCycles`] of every warp of the launch,
/// block-major: block `b` is `warps[b * wpb..(b + 1) * wpb]` with
/// `wpb = launch.warps_per_block(spec)`, for `launch.n_blocks` blocks.
/// Blocks are assigned `block -> SM (block % sm_count)` and executed in
/// waves of `residency.blocks_per_sm`.
///
/// Each SM's queue is walked by stride (`sm, sm + sm_count, ...`) in
/// chunks of `blocks_per_sm`, so the fold is O(blocks) with no per-SM
/// allocation, and it performs the same f64 operations in the same order
/// as filtering the blocks once per SM would.
pub fn kernel_time(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    shared_bytes_per_block: usize,
    warps: &[WarpCycles],
) -> TimingBreakdown {
    let res = residency(spec, launch, shared_bytes_per_block);
    let sm_count = spec.sm_count as usize;
    let r = res.blocks_per_sm as usize;
    let n_blocks = launch.n_blocks as usize;
    let wpb = launch.warps_per_block(spec) as usize;
    assert_eq!(warps.len(), n_blocks * wpb, "one WarpCycles per warp");

    // The busiest SM as (cycles, issue-only cycles); ties go to the later
    // SM, as `Iterator::max_by` breaks them.
    let mut busiest = (0.0f64, 0.0f64);
    let mut max_waves = 0u32;
    for sm in 0..sm_count {
        let mut sm_total = 0.0f64;
        let mut issue_total = 0.0f64;
        let mut waves = 0u32;
        let mut b = sm;
        while b < n_blocks {
            waves += 1;
            let mut wave_issue = 0.0f64;
            let mut wave_longest = 0.0f64;
            for _ in 0..r {
                if b >= n_blocks {
                    break;
                }
                for w in &warps[b * wpb..(b + 1) * wpb] {
                    wave_issue += w.issue;
                    wave_longest = wave_longest.max(w.issue + w.latency);
                }
                wave_issue += spec.costs.block_overhead_cycles;
                b += sm_count;
            }
            sm_total += wave_issue.max(wave_longest);
            issue_total += wave_issue;
        }
        if sm == 0 || sm_total.total_cmp(&busiest.0).is_ge() {
            busiest = (sm_total, issue_total);
        }
        max_waves = max_waves.max(waves);
    }

    let (cycles, issue_only) = busiest;
    let exposed = if cycles > 0.0 {
        ((cycles - issue_only) / cycles).max(0.0)
    } else {
        0.0
    };

    let seconds = spec.cycles_to_seconds(cycles) + spec.costs.kernel_launch_us * 1e-6;
    TimingBreakdown {
        cycles,
        seconds,
        waves: max_waves,
        residency: res,
        exposed_latency_fraction: exposed,
    }
}

/// The filter-per-SM fold [`kernel_time`] replaced, kept verbatim over
/// per-block warp vectors as the bit-identity oracle for the strided walk.
#[cfg(test)]
pub(crate) fn kernel_time_filtered(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    shared_bytes_per_block: usize,
    blocks: &[Vec<WarpCycles>],
) -> TimingBreakdown {
    let res = residency(spec, launch, shared_bytes_per_block);
    let sm_count = spec.sm_count as usize;
    let r = res.blocks_per_sm as usize;

    // Per-SM block queues (round-robin assignment).
    let mut sm_cycles = vec![0.0f64; sm_count];
    let mut sm_issue_only = vec![0.0f64; sm_count];
    let mut max_waves = 0u32;

    for (sm, sm_total) in sm_cycles.iter_mut().enumerate() {
        let queue: Vec<&Vec<WarpCycles>> = blocks
            .iter()
            .enumerate()
            .filter(|(b, _)| b % sm_count == sm)
            .map(|(_, w)| w)
            .collect();
        let mut waves = 0u32;
        let mut issue_total = 0.0f64;
        for wave in queue.chunks(r) {
            waves += 1;
            let mut wave_issue = 0.0f64;
            let mut wave_longest = 0.0f64;
            for block in wave {
                for w in block.iter() {
                    wave_issue += w.issue;
                    wave_longest = wave_longest.max(w.issue + w.latency);
                }
                wave_issue += spec.costs.block_overhead_cycles;
            }
            *sm_total += wave_issue.max(wave_longest);
            issue_total += wave_issue;
        }
        sm_issue_only[sm] = issue_total;
        max_waves = max_waves.max(waves);
    }

    let (busiest, &cycles) = sm_cycles
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap_or((0, &0.0));
    let exposed = if cycles > 0.0 {
        ((cycles - sm_issue_only[busiest]) / cycles).max(0.0)
    } else {
        0.0
    };

    let seconds = spec.cycles_to_seconds(cycles) + spec.costs.kernel_launch_us * 1e-6;
    TimingBreakdown {
        cycles,
        seconds,
        waves: max_waves,
        residency: res,
        exposed_latency_fraction: exposed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Schedule;
    use proptest::prelude::*;

    fn launch(n_blocks: u32, block_size: u32) -> LaunchConfig {
        LaunchConfig {
            n_items: (n_blocks * block_size) as usize,
            schedule: Schedule::GridStride,
            block_size,
            n_blocks,
        }
    }

    /// Flat per-warp cycles of `n_blocks` blocks of `warps` identical warps.
    fn uniform_blocks(n_blocks: usize, warps: usize, issue: f64, latency: f64) -> Vec<WarpCycles> {
        vec![WarpCycles { issue, latency }; warps * n_blocks]
    }

    #[test]
    fn residency_limited_by_warps() {
        let spec = DeviceSpec::v100(); // 64 warps/SM
        let lc = launch(1000, 1024); // 32 warps per block
        let r = residency(&spec, &lc, 0);
        assert_eq!(r.blocks_per_sm, 2);
        assert_eq!(r.limiter, ResidencyLimiter::WarpsPerSm);
    }

    #[test]
    fn residency_limited_by_shared_memory() {
        let spec = DeviceSpec::v100(); // 96 KiB shared per SM
        let lc = launch(1000, 64);
        let r = residency(&spec, &lc, 40 * 1024);
        assert_eq!(r.blocks_per_sm, 2);
        assert_eq!(r.limiter, ResidencyLimiter::SharedMemory);
    }

    #[test]
    fn few_warps_expose_latency() {
        let spec = DeviceSpec::v100();
        // One block on one SM, one warp: latency cannot be hidden.
        let lc = launch(1, 32);
        let blocks = uniform_blocks(1, 1, 100.0, 4000.0);
        let t = kernel_time(&spec, &lc, 0, &blocks);
        assert!(t.cycles >= 4100.0, "cycles = {}", t.cycles);
        assert!(t.exposed_latency_fraction > 0.9);
    }

    #[test]
    fn many_warps_hide_latency() {
        let spec = DeviceSpec::v100();
        // 80 SMs * 8 resident blocks (warp-limited) of 8 warps each,
        // issue-dominated.
        let n_blocks = 80 * 8;
        let lc = launch(n_blocks as u32, 256);
        let blocks = uniform_blocks(n_blocks, 8, 100.0, 400.0);
        let t = kernel_time(&spec, &lc, 0, &blocks);
        // Each SM: one wave, 8 blocks * 8 warps * 100 cycles issue
        // = 6400 >> 500 max latency path.
        assert!(t.exposed_latency_fraction < 0.25);
        assert_eq!(t.waves, 1);
    }

    #[test]
    fn time_monotone_in_work() {
        let spec = DeviceSpec::v100();
        let lc = launch(160, 256);
        let small = kernel_time(&spec, &lc, 0, &uniform_blocks(160, 8, 100.0, 400.0));
        let big = kernel_time(&spec, &lc, 0, &uniform_blocks(160, 8, 200.0, 800.0));
        assert!(big.cycles > small.cycles);
    }

    #[test]
    fn more_blocks_more_waves() {
        let spec = DeviceSpec::v100();
        let few = kernel_time(
            &spec,
            &launch(80, 256),
            0,
            &uniform_blocks(80, 8, 100.0, 0.0),
        );
        let many_blocks = 80 * 33; // one more than a full wave of 32 per SM
        let many = kernel_time(
            &spec,
            &launch(many_blocks as u32, 256),
            0,
            &uniform_blocks(many_blocks, 8, 100.0, 0.0),
        );
        assert_eq!(few.waves, 1);
        assert!(many.waves >= 2);
        assert!(many.cycles > few.cycles);
    }

    #[test]
    fn same_total_work_fewer_threads_is_slower_when_latency_bound() {
        let spec = DeviceSpec::v100();
        // Total work fixed: W warps' worth of issue+latency.
        // Spread over 1 block/SM-queue vs 80 blocks.
        let spread = kernel_time(
            &spec,
            &launch(80, 256),
            0,
            &uniform_blocks(80, 8, 100.0, 400.0),
        );
        let packed = kernel_time(
            &spec,
            &launch(1, 256),
            0,
            &uniform_blocks(1, 8, 100.0 * 80.0, 400.0 * 80.0),
        );
        assert!(
            packed.cycles > spread.cycles,
            "packed {} <= spread {}",
            packed.cycles,
            spread.cycles
        );
    }

    #[test]
    fn launch_overhead_in_seconds() {
        let spec = DeviceSpec::v100();
        let t = kernel_time(&spec, &launch(1, 32), 0, &uniform_blocks(1, 1, 0.0, 0.0));
        assert!(t.seconds >= spec.costs.kernel_launch_us * 1e-6);
    }

    proptest! {
        /// The strided fold is bit-identical to the filter-per-SM oracle:
        /// random grids (including fewer blocks than SMs), block sizes,
        /// shared-memory footprints and per-warp cycles on both devices.
        /// Quantized cycles make equal-cycle SMs common, so the busiest-SM
        /// tie rule (last maximum) decides the exposed-latency fraction.
        #[test]
        fn strided_fold_matches_filtered_oracle(
            n_blocks in 1u32..700,
            block_size in 1u32..1025,
            shared in 0usize..48 * 1024,
            amd in any::<bool>(),
            quantized in any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let spec = if amd { DeviceSpec::mi250x() } else { DeviceSpec::v100() };
            let lc = launch(n_blocks, block_size);
            let wpb = lc.warps_per_block(&spec) as usize;
            // SplitMix64 stream for the per-warp cycles.
            let mut state = seed;
            let mut draw = |scale: f64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if quantized {
                    (z % 3) as f64 * scale
                } else {
                    (z >> 11) as f64 / (1u64 << 53) as f64 * scale
                }
            };
            let flat: Vec<WarpCycles> = (0..n_blocks as usize * wpb)
                .map(|_| WarpCycles { issue: draw(100.0), latency: draw(400.0) })
                .collect();
            let nested: Vec<Vec<WarpCycles>> = flat.chunks(wpb).map(<[_]>::to_vec).collect();
            let got = kernel_time(&spec, &lc, shared, &flat);
            let want = kernel_time_filtered(&spec, &lc, shared, &nested);
            prop_assert_eq!(got.cycles.to_bits(), want.cycles.to_bits());
            prop_assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
            prop_assert_eq!(got.waves, want.waves);
            prop_assert_eq!(
                got.exposed_latency_fraction.to_bits(),
                want.exposed_latency_fraction.to_bits()
            );
            prop_assert_eq!(got.residency, want.residency);
        }
    }
}
