//! `tune-cold` and `tune-warm`: one `TuningService::submit` per
//! (application, device) pair, each under its own seeded error bound.
//! `tune-cold` empties the cache before every round, so every request
//! searches; `tune-warm` fills it in set-up, so every request is a hit.

use crate::check;
use crate::drive::{self, Call, TuneProbes, Workload};
use crate::report::Outcome;
use crate::stats;
use crate::suite::{Order, Pair, Suite};
use crate::{Args, Kind};
use hpac_harness::space::Scale;
use hpac_service::{Source, TuneRequest, TuneResponse, TuningService};
use hpac_tuner::{device_fingerprint, QualityBound, TunedPlan, Tuner, TuningCache};
use std::path::PathBuf;
use std::time::Instant;

/// Data draws of every application per tune-cold round. A K-Means search
/// costs 0.5 to 1.5 s depending on its data, and it dominates the round;
/// three draws per round average that out within a run instead of across
/// runs.
const COLD_DRAWS: usize = 3;

/// The tuning cache's private directory inside the checkout, removed when
/// the run ends.
struct StateDir(PathBuf);

impl StateDir {
    fn new() -> StateDir {
        StateDir(PathBuf::from(format!(
            ".perfbench-state/{}/cache",
            std::process::id()
        )))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        if let Some(run) = self.0.parent() {
            let _ = std::fs::remove_dir_all(run);
        }
        // Only removes the shared parent once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench-state");
    }
}

struct Tune {
    warm: bool,
    suite: Suite,
    bounds: Vec<f64>,
    service: TuningService,
    cache: TuningCache,
    order: Order,
    /// tune-cold: each pair's first-round plan; tune-warm: the plan stored
    /// in set-up.
    reference: Vec<Option<TunedPlan>>,
    /// `check::plan_digest` of `reference` as the workload must return it
    /// (tune-warm: marked as served from the cache).
    digest: Vec<Option<String>>,
    requests: Vec<u64>,
    /// Failed requests per pair, with one message each in `failures`.
    failed: Vec<u64>,
    failures: Vec<String>,
    probes: TuneProbes,
}

impl Tune {
    fn request(&self, p: Pair) -> TuneRequest<'_> {
        TuneRequest::new(
            self.suite.bench(p),
            self.suite.device(p),
            QualityBound::percent(self.bounds[self.suite.index(p)]),
        )
    }

    /// Time the cache calls a search's submit makes, before it runs.
    fn probe_before_search(&mut self, p: Pair) {
        let (bench, spec) = (self.suite.bench(p).name(), self.suite.device(p));
        let fp = device_fingerprint(spec);
        let t = Instant::now();
        let miss = self
            .cache
            .load(bench, spec.name, self.bounds[self.suite.index(p)], fp);
        let load_miss = t.elapsed().as_nanos() as u64;
        assert!(miss.is_none(), "tune-cold empties the cache every round");
        let t = Instant::now();
        let _ = self.cache.neighbors(bench, spec.name, fp);
        let neighbors = t.elapsed().as_nanos() as u64;
        self.probes.submit_io_ns += 2 * load_miss + neighbors;
    }

    fn probe_after(&mut self, p: Pair, resp: &TuneResponse) {
        let spec = self.suite.device(p);
        let fp = device_fingerprint(spec);
        self.probes.requests += 1;
        self.probes.evals_spent += resp.evals_spent as u64;
        if resp.source.is_searched() {
            let t = Instant::now();
            self.cache.store(&resp.plan, fp).expect("store probe");
            let store = t.elapsed().as_nanos() as u64;
            self.probes.searched += 1;
            self.probes.store_ns += store;
            self.probes.submit_io_ns += store;
        }
        let t = Instant::now();
        let hit = self.cache.load(
            &resp.plan.benchmark,
            spec.name,
            self.bounds[self.suite.index(p)],
            fp,
        );
        let load_hit = t.elapsed().as_nanos() as u64;
        assert!(hit.is_some(), "the answered key is cached");
        self.probes.load_hit_ns += load_hit;
        if resp.source.is_cache_hit() {
            self.probes.submit_io_ns += load_hit;
        }
    }

    fn check_response(&mut self, p: Pair, resp: TuneResponse) {
        let i = self.suite.index(p);
        self.requests[i] += 1;
        let label = self.suite.label(p);
        let want_source = if self.warm {
            Source::CacheHit
        } else {
            Source::Searched { warm_seeds: 0 }
        };
        if resp.source != want_source {
            self.failed[i] += 1;
            self.failures.push(format!(
                "{label}: source {:?}, expected {want_source:?}",
                resp.source
            ));
            return;
        }
        let plan = resp.plan;
        if !self.warm && self.reference[i].is_none() {
            self.digest[i] = Some(check::plan_digest(&plan));
            self.reference[i] = Some(plan);
        } else if Some(check::plan_digest(&plan)) != self.digest[i] {
            self.failed[i] += 1;
            self.failures
                .push(format!("{label}: plan differs from the reference plan"));
        }
    }
}

impl Workload for Tune {
    fn round(&mut self, traced: bool, until: Option<Instant>, calls: &mut Vec<Call>) {
        let order = self.order.next_round();
        // The service keys plans by application name, so each data draw
        // has the cache to itself: tune-cold empties it before each draw's
        // requests.
        for draw in 0..self.suite.draws() {
            if !self.warm {
                self.cache.clear().expect("empty the tuning cache");
            }
            let batch: Vec<Pair> = order
                .iter()
                .copied()
                .filter(|&p| self.suite.draw_of(p) == draw)
                .collect();
            for p in batch {
                if drive::past(until) {
                    return;
                }
                if traced && !self.warm {
                    self.probe_before_search(p);
                }
                let req = self.request(p);
                let (resp, t0, t1) = drive::timed(|| self.service.submit(req));
                calls.push(Call {
                    pair: self.suite.index(p),
                    ops: 1,
                    t0,
                    t1,
                });
                if traced {
                    self.probe_after(p, &resp);
                }
                self.check_response(p, resp);
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let warm = args.workload == Kind::TuneWarm;
    let state = StateDir::new();
    let (setup_s, mut w) = drive::setup(|| {
        let suite = Suite::with_draws(args.seed, if warm { 1 } else { COLD_DRAWS });
        suite.warm_up();
        let pairs = suite.pairs();
        let cache = TuningCache::new(&state.0);
        cache.clear().expect("empty the tuning cache");
        let mut w = Tune {
            warm,
            bounds: suite.bounds(args.seed),
            service: TuningService::new()
                .with_cache(cache.clone())
                .with_tuner(Tuner::new().with_scale(Scale::Quick)),
            cache,
            order: Order::new(args.seed, pairs.clone()),
            reference: vec![None; pairs.len()],
            digest: vec![None; pairs.len()],
            requests: vec![0; pairs.len()],
            failed: vec![0; pairs.len()],
            failures: Vec::new(),
            probes: TuneProbes::default(),
            suite,
        };
        if warm {
            for p in pairs {
                let resp = w.service.submit(w.request(p));
                let i = w.suite.index(p);
                let mut plan = resp.plan;
                plan.from_cache = true;
                w.digest[i] = Some(check::plan_digest(&plan));
                plan.from_cache = false;
                w.reference[i] = Some(plan);
            }
        }
        w
    });
    let d = drive::drive(&mut w, args.seconds, args.trace);
    let rss = stats::peak_rss_mib();

    // Oracle check of the reference plans, outside the timed window: every
    // later answer for a pair was compared with its reference, so a bad
    // reference fails every request of that pair.
    let mut out = Outcome::default();
    for p in w.suite.pairs() {
        let i = w.suite.index(p);
        let Some(plan) = &w.reference[i] else {
            continue;
        };
        if let Some(f) = check::check_plan(plan, w.suite.bench(p), w.suite.device(p)) {
            let label = w.suite.label(p);
            let unflagged = w.requests[i] - w.failed[i];
            w.failures.extend(
                (0..unflagged).map(|k| format!("{label} request {k}: reference plan: {f}")),
            );
        }
    }
    let attempted = w.requests.iter().sum();
    let failures = std::mem::take(&mut w.failures);
    out.ops(attempted, failures);
    println!(
        "checked {attempted} responses; reference plans re-executed on the sequential executor"
    );

    if args.trace {
        drive::per_layer(&mut out, &d, &w.probes);
    } else {
        let labels: Vec<String> = w
            .suite
            .pairs()
            .into_iter()
            .map(|p| w.suite.label(p))
            .collect();
        drive::print_pairs(&d, &labels);
        drive::end_to_end(&mut out, &d, setup_s, rss);
    }
    out
}
