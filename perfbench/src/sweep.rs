//! `sweep`: `run_sweep` over the seven applications on each device at
//! `Scale::Quick`, one (application, device) pair per call, each device
//! with a data draw of its own.

use crate::check::{self, Entry};
use crate::drive::{self, Call, Workload};
use crate::report::Outcome;
use crate::stats;
use crate::suite::{Order, Suite};
use crate::Args;
use hpac_harness::runner::{self, SweepOutcome};
use hpac_harness::space::{Scale, SweepConfig};
use std::time::Instant;

struct Sweep {
    suite: Suite,
    order: Order,
    /// Each pair's first-round outcome, in `Suite::pairs` order.
    first: Vec<Option<SweepOutcome>>,
    /// Entries of later rounds that differ from the first round's.
    drift: Vec<String>,
    /// Plan entries resolved in later rounds.
    later_entries: u64,
}

impl Workload for Sweep {
    fn round(&mut self, _traced: bool, until: Option<Instant>, calls: &mut Vec<Call>) {
        for p in self.order.next_round() {
            if drive::past(until) {
                break;
            }
            let (out, t0, t1) = drive::timed(|| {
                runner::run_sweep(self.suite.bench(p), self.suite.device(p), Scale::Quick)
            });
            let entries = (out.rows.len() + out.rejected.len()) as u64;
            let pair = self.suite.index(p);
            calls.push(Call {
                pair,
                ops: entries,
                t0,
                t1,
            });
            let slot = &mut self.first[pair];
            match slot {
                None => *slot = Some(out),
                Some(first) => {
                    self.later_entries += entries;
                    let label = self.suite.label(p);
                    self.drift.extend(
                        check::compare_sweep(&out, &check::as_entries(first))
                            .into_iter()
                            .map(|f| format!("{label} later round: {f}")),
                    );
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let (setup_s, (suite, plans)) = drive::setup(|| {
        let suite = Suite::draw_per_device(args.seed);
        let plans: Vec<Vec<SweepConfig>> = suite.plans();
        suite.warm_up();
        (suite, plans)
    });
    let pairs = suite.pairs();
    let mut w = Sweep {
        first: pairs.iter().map(|_| None).collect(),
        order: Order::new(args.seed, pairs.clone()),
        suite,
        drift: Vec::new(),
        later_entries: 0,
    };
    let d = drive::drive(&mut w, args.seconds, args.trace);
    let rss = stats::peak_rss_mib();

    // Oracle check of the first round, outside the timed window.
    let mut out = Outcome::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oracle: Vec<Vec<Entry>> = check::sweep_oracle(&w.suite, &pairs, &plans, threads);
    for (i, p) in pairs.iter().enumerate() {
        let first = w.first[i]
            .as_ref()
            .expect("every pair ran in the first round");
        let label = w.suite.label(*p);
        let failures = check::compare_sweep(first, &oracle[i])
            .into_iter()
            .map(|f| format!("{label} vs oracle: {f}"))
            .collect();
        out.ops(plans[i].len() as u64, failures);
    }
    out.ops(w.later_entries, std::mem::take(&mut w.drift));
    println!(
        "checked {} plan entries against the sequential oracle and {} later-round entries against the first round",
        plans.iter().map(Vec::len).sum::<usize>(),
        w.later_entries
    );

    if args.trace {
        drive::per_layer(&mut out, &d, &drive::TuneProbes::default());
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
