//! Output checks, run outside the timed window.
//!
//! The sweep oracle recomputes every plan entry the way the paper defines
//! it, with none of the harness's reuse layers: the accurate baseline from
//! `select_baseline_opts`, each configuration through `Benchmark::run_opts`
//! under `Executor::Sequential` with no sweep-scoped eval memo installed,
//! and the error from `QoI::error_vs`. Canonical dedup, the quality cache
//! and config fan-out are all absent, so a defect in any of them shows as a
//! mismatched entry.

use crate::suite::{Pair, Suite};
use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_core::exec::{ExecOptions, Executor};
use hpac_harness::db::Row;
use hpac_harness::runner::{self, SweepOutcome};
use hpac_harness::space::SweepConfig;
use hpac_tuner::TunedPlan;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One plan entry's expected outcome: a row, or a (label, reason) rejection.
pub type Entry = Result<Row, (String, String)>;

fn sequential() -> ExecOptions {
    ExecOptions {
        executor: Executor::Sequential,
        ..ExecOptions::default()
    }
}

/// The oracle's entry for one configuration against an oracle baseline.
fn oracle_entry(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    baseline: &runner::Baseline,
    cfg: &SweepConfig,
) -> Entry {
    let kernel_only = bench.kernel_only_timing();
    match bench.run_opts(spec, Some(&cfg.region), &cfg.lp, &sequential()) {
        Ok(res) => {
            let seconds = res.timing_basis_seconds(kernel_only);
            Ok(Row {
                benchmark: bench.name().to_string(),
                device: spec.name.to_string(),
                technique: cfg.region.technique_name().to_string(),
                config: cfg.label.clone(),
                items_per_thread: cfg.lp.items_per_thread,
                speedup: baseline.seconds / seconds,
                error_pct: res.qoi.error_vs(&baseline.result.qoi) * 100.0,
                approx_fraction: res.stats.approx_fraction(),
                divergent_fraction: res.stats.divergence_fraction(),
                kernel_seconds: res.kernel_seconds,
                end_to_end_seconds: res.end_to_end_seconds(),
                iterations: res.iterations,
            })
        }
        Err(e) => Err((cfg.label.clone(), e.to_string())),
    }
}

/// Oracle entries for every pair's plan, computed on `threads` plain OS
/// threads (each configuration still runs on the sequential executor).
/// Must not overlap a harness sweep: the harness's eval-memo scope is
/// process-wide, and the oracle relies on none being installed.
pub fn sweep_oracle(
    suite: &Suite,
    pairs: &[Pair],
    plans: &[Vec<SweepConfig>],
    threads: usize,
) -> Vec<Vec<Entry>> {
    let baselines: Vec<Mutex<Option<runner::Baseline>>> =
        pairs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&p) = pairs.get(i) else { break };
                let b =
                    runner::select_baseline_opts(suite.bench(p), suite.device(p), &sequential());
                *baselines[i].lock().expect("oracle thread panicked") = Some(b);
            });
        }
    });
    let baselines: Vec<runner::Baseline> = baselines
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("oracle thread panicked")
                .expect("baseline computed")
        })
        .collect();

    let tasks: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(i, plan)| (0..plan.len()).map(move |j| (i, j)))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Entry)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(i, j)) = tasks.get(t) else { break };
                    let p = pairs[i];
                    let e =
                        oracle_entry(suite.bench(p), suite.device(p), &baselines[i], &plans[i][j]);
                    local.push((t, e));
                }
                done.lock().expect("oracle thread panicked").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("oracle thread panicked");
    done.sort_by_key(|(t, _)| *t);
    let mut out: Vec<Vec<Entry>> = plans.iter().map(|p| Vec::with_capacity(p.len())).collect();
    for ((i, _), (_, e)) in tasks.iter().zip(done) {
        out[*i].push(e);
    }
    out
}

/// Why two rows differ, or `None` when they agree on every field bit for
/// bit.
fn row_diff(got: &Row, want: &Row) -> Option<String> {
    let floats = [
        ("speedup", got.speedup, want.speedup),
        ("error_pct", got.error_pct, want.error_pct),
        ("approx_fraction", got.approx_fraction, want.approx_fraction),
        (
            "divergent_fraction",
            got.divergent_fraction,
            want.divergent_fraction,
        ),
        ("kernel_seconds", got.kernel_seconds, want.kernel_seconds),
        (
            "end_to_end_seconds",
            got.end_to_end_seconds,
            want.end_to_end_seconds,
        ),
    ];
    if (
        &got.benchmark,
        &got.device,
        &got.technique,
        &got.config,
        got.items_per_thread,
    ) != (
        &want.benchmark,
        &want.device,
        &want.technique,
        &want.config,
        want.items_per_thread,
    ) {
        return Some(format!("identity {} vs {}", got.config, want.config));
    }
    for (name, g, w) in floats {
        if g.to_bits() != w.to_bits() {
            return Some(format!("{}: {name} {g:e} vs {w:e}", want.config));
        }
    }
    if got.iterations != want.iterations {
        return Some(format!("{}: iterations differ", want.config));
    }
    None
}

/// Compare a sweep outcome with expected entries. Returns one message per
/// entry that is missing, extra, or differs in any field (rows bit for bit,
/// rejections by label and reason).
pub fn compare_sweep(got: &SweepOutcome, want: &[Entry]) -> Vec<String> {
    let want_rows: Vec<&Row> = want.iter().filter_map(|e| e.as_ref().ok()).collect();
    let want_rejected: Vec<&(String, String)> =
        want.iter().filter_map(|e| e.as_ref().err()).collect();
    let mut failures = Vec::new();
    for i in 0..got.rows.len().max(want_rows.len()) {
        match (got.rows.get(i), want_rows.get(i)) {
            (Some(g), Some(w)) => failures.extend(row_diff(g, w)),
            (Some(g), None) => failures.push(format!("{}: unexpected row", g.config)),
            (None, Some(w)) => failures.push(format!("{}: row missing", w.config)),
            (None, None) => unreachable!("index below the longer length"),
        }
    }
    for i in 0..got.rejected.len().max(want_rejected.len()) {
        match (got.rejected.get(i), want_rejected.get(i)) {
            (Some(g), Some(w)) if g == *w => {}
            (Some(g), Some(w)) => failures.push(format!("rejection {g:?} vs {w:?}")),
            (Some(g), None) => failures.push(format!("{}: unexpected rejection", g.0)),
            (None, Some(w)) => failures.push(format!("{}: rejection missing", w.0)),
            (None, None) => unreachable!("index below the longer length"),
        }
    }
    failures
}

/// A sweep outcome as expected entries, for comparing later rounds with
/// the first (rows first, then rejections — the order `compare_sweep`
/// splits them back into).
pub fn as_entries(o: &SweepOutcome) -> Vec<Entry> {
    o.rows
        .iter()
        .cloned()
        .map(Ok)
        .chain(o.rejected.iter().cloned().map(Err))
        .collect()
}

/// Check a tuned plan: it respects its bound, and re-executing it on the
/// sequential executor reproduces its predicted speedup and measured error
/// bit for bit.
pub fn check_plan(plan: &TunedPlan, bench: &dyn Benchmark, spec: &DeviceSpec) -> Option<String> {
    // Compared here rather than through the program's own helper; a NaN
    // error fails too.
    let within_bound = plan.measured_error_pct <= plan.bound_pct;
    if !within_bound {
        return Some(format!(
            "{}: error {}% over bound {}%",
            plan.benchmark, plan.measured_error_pct, plan.bound_pct
        ));
    }
    match plan.execute_opts(bench, spec, &sequential()) {
        Err(e) => Some(format!("{}: plan does not execute: {e}", plan.benchmark)),
        Ok(r) if r.speedup.to_bits() != plan.predicted_speedup.to_bits() => Some(format!(
            "{}: re-executed speedup {} vs predicted {}",
            plan.benchmark, r.speedup, plan.predicted_speedup
        )),
        Ok(r) if r.error_pct.to_bits() != plan.measured_error_pct.to_bits() => Some(format!(
            "{}: re-executed error {}% vs measured {}%",
            plan.benchmark, r.error_pct, plan.measured_error_pct
        )),
        Ok(_) => None,
    }
}

/// Exact identity of a plan as the service returns it: every field,
/// floats by their shortest round-tripping form.
pub fn plan_digest(plan: &TunedPlan) -> String {
    format!("{plan:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;
    use hpac_apps::common::LaunchParams;
    use hpac_core::region::ApproxRegion;
    use hpac_harness::space::{self, Scale};
    use hpac_tuner::ParetoFrontier;

    fn tiny() -> Blackscholes {
        Blackscholes {
            n_options: 2048,
            ..Blackscholes::default()
        }
    }

    /// The oracle agrees with the harness on a real plan slice (rows and
    /// rejections), and a one-ulp change to one row's error is one failed
    /// entry.
    #[test]
    fn one_ulp_error_change_is_one_failed_entry() {
        let suite = Suite::every_pair(vec![Box::new(tiny())], vec![DeviceSpec::v100()]);
        let pair = suite.pairs()[0];
        let full = space::plan(suite.bench(pair), suite.device(pair), Scale::Quick);
        // A few configurations of each outcome kind.
        let mut plan: Vec<SweepConfig> = full.iter().take(4).cloned().collect();
        let base = runner::select_baseline(suite.bench(pair), suite.device(pair));
        plan.extend(
            full.iter()
                .filter(|c| oracle_entry(suite.bench(pair), suite.device(pair), &base, c).is_err())
                .take(2)
                .cloned(),
        );
        let want = sweep_oracle(&suite, &[pair], &[plan.clone()], 2).remove(0);
        assert!(want.iter().any(|e| e.is_err()), "slice has a rejection");
        let mut got = runner::run_configs(suite.bench(pair), suite.device(pair), &plan);
        assert_eq!(compare_sweep(&got, &want), Vec::<String>::new());

        let e = &mut got.rows[1].error_pct;
        *e = f64::from_bits(e.to_bits() + 1);
        assert_eq!(compare_sweep(&got, &want).len(), 1);
    }

    #[test]
    fn plan_over_its_bound_fails() {
        let bench = tiny();
        let spec = DeviceSpec::v100();
        let mut plan = TunedPlan {
            benchmark: bench.name().to_string(),
            device: spec.name.to_string(),
            bound_pct: 100.0,
            region: Some(ApproxRegion::memo_out(2, 64, 5.0)),
            lp: LaunchParams::new(16, 256),
            technique: "TAF".into(),
            config: "test".into(),
            predicted_speedup: 0.0,
            measured_error_pct: 0.0,
            baseline_lp: LaunchParams::new(8, 256),
            evaluations: 1,
            full_space: 1,
            from_cache: false,
            frontier: ParetoFrontier::new(),
        };
        let r = plan.execute_opts(&bench, &spec, &sequential()).unwrap();
        plan.predicted_speedup = r.speedup;
        plan.measured_error_pct = r.error_pct;
        assert!(r.error_pct > 0.0, "the region must approximate");
        assert_eq!(check_plan(&plan, &bench, &spec), None);

        plan.bound_pct = r.error_pct / 2.0;
        let msg = check_plan(&plan, &bench, &spec).expect("over-bound plan fails");
        assert!(msg.contains("over bound"), "{msg}");

        plan.bound_pct = 100.0;
        plan.predicted_speedup = f64::from_bits(r.speedup.to_bits() + 1);
        assert!(check_plan(&plan, &bench, &spec).is_some());
    }
}
