//! The closed loop every workload runs in, set-up timing, and the metric
//! sets both run modes print.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Collector, Counters, LAYERS};
use hpac_obs::{CounterId, OwnedEvent, SpanId};
use std::time::{Duration, Instant};

/// Set-up runs at least this many times, and until it has taken two
/// seconds in total; `setup_s` is the median. A single `tune-cold` set-up
/// (about 0.25 s) varies by a quarter between runs on a shared host.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;

/// Full rounds every run measures at least, so each latency figure rests on
/// three passes over all pairs (42 calls, enough for a p75 tail) even when
/// one round outlasts `--seconds`. After them an untraced run stops at the
/// first call due past `--seconds`, so every run measures about the same
/// time whatever its round length; a traced run stops only after a full
/// round, so its work counts are whole rounds.
const MIN_ROUNDS: usize = 3;

/// In a traced run, rounds are grouped into blocks of at least this long
/// that alternate between untraced and traced, so tracing overhead is a
/// same-run ratio.
const TRACE_BLOCK: Duration = Duration::from_secs(1);

/// One timed program call.
pub struct Call {
    /// Which (application, device) pair the call served.
    pub pair: usize,
    /// Operations it resolved.
    pub ops: u64,
    /// Start and end on the obs clock (the clock span events use).
    pub t0: u64,
    pub t1: u64,
}

impl Call {
    fn ns(&self) -> u64 {
        self.t1 - self.t0
    }
}

/// One workload's round: a pass over every (application, device) pair in a
/// seeded order.
pub trait Workload {
    /// Run one round, recording each program call into `calls`. With
    /// `until`, make no call once that instant has passed.
    fn round(&mut self, traced: bool, until: Option<Instant>, calls: &mut Vec<Call>);
}

/// Has `until` passed?
pub fn past(until: Option<Instant>) -> bool {
    until.is_some_and(|t| Instant::now() >= t)
}

/// Run `f`, returning its result and its start and end on the obs clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let t0 = hpac_obs::now_ns();
    let r = f();
    (r, t0, hpac_obs::now_ns())
}

/// Run `setup` repeatedly (see [`SETUP_REPS`]); return the median seconds
/// and the last result.
pub fn setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let last = setup();
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= SETUP_REPS && secs.iter().sum::<f64>() >= SETUP_MIN_SECONDS;
        if enough || secs.len() >= SETUP_MAX_REPS {
            return (stats::median(&secs), last);
        }
    }
}

#[derive(Default)]
pub struct Drive {
    /// Call time of each untraced round, seconds.
    pub untraced_rounds: Vec<f64>,
    /// Call time of each traced round, seconds.
    pub traced_rounds: Vec<f64>,
    /// Latency of every untraced call, ms.
    pub latencies_ms: Vec<f64>,
    /// Per pair: the latency of each untraced call, ms, and the operations
    /// one call resolves.
    pub by_pair: Vec<(Vec<f64>, u64)>,
    /// Traced call windows on the obs clock.
    pub windows: Vec<(u64, u64)>,
    pub events: Vec<OwnedEvent>,
    pub counters: Counters,
}

/// Drive `w` until `seconds` have passed and at least [`MIN_ROUNDS`] rounds
/// ran. With `trace`, blocks of rounds alternate untraced and traced,
/// starting untraced, and at least one of each runs.
pub fn drive(w: &mut impl Workload, seconds: f64, trace: bool) -> Drive {
    let mut d = Drive::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut block = 0usize;
    let rounds = |d: &Drive| d.untraced_rounds.len() + d.traced_rounds.len();
    while rounds(&d) < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds || (trace && block < 2)
    {
        let traced = trace && block % 2 == 1;
        let collector = traced.then(Collector::start);
        let block_start = Instant::now();
        loop {
            let mut calls = Vec::new();
            let until = (!trace && rounds(&d) >= MIN_ROUNDS).then_some(end);
            w.round(traced, until, &mut calls);
            if calls.is_empty() {
                break;
            }
            let secs = calls.iter().map(|c| c.ns() as f64).sum::<f64>() / 1e9;
            if traced {
                d.traced_rounds.push(secs);
                d.windows.extend(calls.iter().map(|c| (c.t0, c.t1)));
            } else {
                d.untraced_rounds.push(secs);
                for c in &calls {
                    let ms = c.ns() as f64 / 1e6;
                    d.latencies_ms.push(ms);
                    if d.by_pair.len() <= c.pair {
                        d.by_pair.resize_with(c.pair + 1, Default::default);
                    }
                    d.by_pair[c.pair].0.push(ms);
                    d.by_pair[c.pair].1 = c.ops;
                }
            }
            if !trace || block_start.elapsed() >= TRACE_BLOCK {
                break;
            }
        }
        if let Some(c) = collector {
            let (events, delta) = c.finish();
            d.events.extend(events);
            d.counters.add(&delta);
        }
        block += 1;
    }
    d
}

/// One line of per-pair median call times, slowest first: where a round's
/// time goes.
pub fn print_pairs(d: &Drive, labels: &[String]) {
    let mut pairs: Vec<(f64, &str)> = d
        .by_pair
        .iter()
        .zip(labels)
        .filter(|((ms, _), _)| !ms.is_empty())
        .map(|((ms, _), l)| (stats::median(ms), l.as_str()))
        .collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let line: Vec<String> = pairs.iter().map(|(ms, l)| format!("{l} {ms:.1}")).collect();
    println!("median ms per call: {}", line.join(", "));
}

/// The end-to-end metrics, from untraced rounds only. Throughput is the
/// geometric mean over pairs of each pair's operations per second at its
/// median call time: one slow call moves it no more than it moves that
/// pair's median, and every pair weighs the same, so one application whose
/// cost depends strongly on its data (K-Means: up to 2x between data seeds)
/// does not set the figure alone. The total a round of median calls takes
/// is printed beside it.
pub fn end_to_end(out: &mut Outcome, d: &Drive, setup_s: f64, peak_rss_mib: f64) {
    let (tail, tail_pct) = stats::tail(&d.latencies_ms);
    let medians: Vec<(u64, f64)> = d
        .by_pair
        .iter()
        .filter(|(ms, _)| !ms.is_empty())
        .map(|(ms, ops)| (*ops, stats::median(ms)))
        .collect();
    let round_ops: u64 = medians.iter().map(|(ops, _)| ops).sum();
    let round_ms: f64 = medians.iter().map(|(_, ms)| ms).sum();
    let log_rate: f64 = medians
        .iter()
        .map(|&(ops, ms)| (ops as f64 / (ms / 1e3)).ln())
        .sum::<f64>()
        / medians.len() as f64;
    println!(
        "{} untraced rounds, {} calls; tail is p{tail_pct} of {} samples; \
         a round of median calls resolves {round_ops} ops in {round_ms:.3} ms",
        d.untraced_rounds.len(),
        d.latencies_ms.len(),
        d.latencies_ms.len()
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", log_rate.exp(), "1/s");
    out.metric("call_ms.p50", stats::median(&d.latencies_ms), "ms");
    out.metric("call_ms.tail", tail, "ms");
    out.metric("peak_rss_mib", peak_rss_mib, "MiB");
    out.metric("ok_frac", out.ok_frac(), "fraction");
}

/// Benchmark-side probes of the tuning cache around traced tune requests.
/// The program records no span for cache I/O, so the benchmark times the
/// same public `TuningCache` calls the service makes, on the same keys.
#[derive(Default)]
pub struct TuneProbes {
    pub requests: u64,
    pub searched: u64,
    pub evals_spent: u64,
    /// Total ns of probed `load` hits, one per request.
    pub load_hit_ns: u64,
    /// Total ns of probed `store`s, one per searched request.
    pub store_ns: u64,
    /// Total ns of the cache I/O each request's submit performs, as probed:
    /// one load hit for a cache hit; two load misses, one neighbour scan
    /// and one store for a search.
    pub submit_io_ns: u64,
}

/// The per-layer metrics of the traced rounds. Counts and ledger times are
/// per round; latencies are per call.
pub fn per_layer(out: &mut Outcome, d: &Drive, probes: &TuneProbes) {
    let width = hpac_core::exec::engine().default_width();
    let c = &d.counters;
    let rounds = d.traced_rounds.len() as f64;
    let per_round = |id: CounterId| c.get(id) as f64 / rounds;
    let client: Vec<u32> = hpac_obs::snapshot()
        .workers
        .iter()
        .filter(|w| !w.pool_worker)
        .map(|w| w.worker)
        .collect();
    let l = trace::ledger(&d.events, &client, &d.windows);
    let mean = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let requests: Vec<_> = l.of(SpanId::ServiceRequest).collect();
    let request_self_ns: u64 = requests.iter().map(|s| s.self_ns()).sum();
    let baselines: Vec<_> = l.of(SpanId::BaselineSelect).collect();
    let call_ns: u64 = d.windows.iter().map(|(a, b)| b - a).sum();

    out.metric(
        "service.self_us",
        mean(
            request_self_ns as f64 - probes.submit_io_ns as f64,
            requests.len() as f64,
        ) / 1e3,
        "us",
    );
    out.metric(
        "service.cache_hit_frac",
        mean(
            c.get(CounterId::TunerCacheHits) as f64,
            c.get(CounterId::ServiceRequests) as f64,
        ),
        "fraction",
    );
    out.metric(
        "tuner.search_ms",
        mean(
            l.children_ns(SpanId::ServiceRequest) as f64,
            probes.searched as f64,
        ) / 1e6,
        "ms",
    );
    out.metric(
        "tuner.evals_per_request",
        mean(probes.evals_spent as f64, probes.requests as f64),
        "count",
    );
    out.metric("tuner.evals", per_round(CounterId::TunerEvals), "count");
    out.metric(
        "tuner.evals_skipped",
        per_round(CounterId::TunerEvalsSkipped),
        "count",
    );
    out.metric(
        "tuner.early_aborts",
        per_round(CounterId::EarlyAborts),
        "count",
    );
    out.metric(
        "tuner.cache_store_ms",
        mean(probes.store_ns as f64, probes.searched as f64) / 1e6,
        "ms",
    );
    out.metric(
        "tuner.cache_load_us",
        mean(probes.load_hit_ns as f64, probes.requests as f64) / 1e3,
        "us",
    );
    out.metric(
        "harness.baseline_ms",
        mean(
            baselines.iter().map(|s| s.dur()).sum::<u64>() as f64,
            baselines.len() as f64,
        ) / 1e6,
        "ms",
    );
    out.metric(
        "harness.eval_self_ms",
        l.of(SpanId::ConfigEval).map(|s| s.self_ns()).sum::<u64>() as f64 / rounds / 1e6,
        "ms",
    );
    out.metric(
        "harness.configs_evaluated",
        per_round(CounterId::ConfigsEvaluated),
        "count",
    );
    out.metric(
        "harness.configs_deduped",
        per_round(CounterId::ConfigsDeduped),
        "count",
    );
    out.metric(
        "harness.configs_rejected",
        per_round(CounterId::ConfigsRejected),
        "count",
    );
    out.metric(
        "harness.quality_cache_hit_rate",
        mean(
            c.get(CounterId::QualityCacheHits) as f64,
            c.get(CounterId::ConfigsEvaluated) as f64,
        ),
        "fraction",
    );
    out.metric(
        "apps.eval_memo_hit_rate",
        c.rate(CounterId::EvalMemoHits, CounterId::EvalMemoMisses),
        "fraction",
    );
    out.metric(
        "apps.compute_memo_hit_rate",
        c.rate(CounterId::ComputeMemoHits, CounterId::ComputeMemoMisses),
        "fraction",
    );
    out.metric("exec.walk_ms", l.walk_ns() as f64 / rounds / 1e6, "ms");
    out.metric(
        "exec.mix_memo_hit_rate",
        c.rate(CounterId::MixMemoHits, CounterId::MixMemoMisses),
        "fraction",
    );
    out.metric(
        "exec.worker_busy_frac",
        mean(c.busy_ns as f64, call_ns as f64 * width as f64).min(1.0),
        "fraction",
    );
    out.metric(
        "exec.batch_wait_ms",
        l.of(SpanId::EngineBatch).map(|s| s.self_ns()).sum::<u64>() as f64 / rounds / 1e6,
        "ms",
    );
    out.metric(
        "gpu-sim.kernel_launches",
        per_round(CounterId::KernelLaunches),
        "count",
    );
    out.metric(
        "gpu-sim.warp_steps",
        per_round(CounterId::WarpSteps),
        "count",
    );
    out.metric(
        "gpu-sim.approx_lanes",
        per_round(CounterId::ApproxLanes),
        "count",
    );
    out.metric(
        "gpu-sim.skipped_lanes",
        per_round(CounterId::SkippedLanes),
        "count",
    );
    out.metric(
        "obs.trace_overhead",
        stats::median(&d.traced_rounds) / stats::median(&d.untraced_rounds),
        "ratio",
    );
    out.metric("obs.dropped_events", c.dropped as f64, "count");
    out.metric("ledger.unexplained_frac", l.unexplained_frac, "fraction");
    for ((_, name), ns) in LAYERS.iter().zip(l.self_ns) {
        out.metric(name, ns as f64 / rounds / 1e6, "ms");
    }
    println!(
        "traced: {} rounds, {} events, {} dropped; {}; unexplained {:.4}",
        d.traced_rounds.len(),
        d.events.len(),
        c.dropped,
        LAYERS
            .iter()
            .zip(l.self_ns)
            .map(|((_, n), ns)| format!("{n} {:.3}", ns as f64 / rounds / 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        l.unexplained_frac
    );
}
