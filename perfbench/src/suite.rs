//! The seeded inputs every workload shares: the seven applications at the
//! laptop scale `sweepbench` and `servebench` use, the two devices, the
//! call order, and the tune bounds.

use crate::stats::Rng;
use gpu_sim::DeviceSpec;
use hpac_apps::common::{Benchmark, LaunchParams};
use hpac_apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_harness::space::{self, Scale, SweepConfig};

/// One (application, device) pair: the unit a sweep call or a tune request
/// covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    pub app: usize,
    pub device: usize,
}

pub struct Suite {
    /// [`APPS`] applications per data draw, draw after draw.
    pub apps: Vec<Box<dyn Benchmark>>,
    pub devices: Vec<DeviceSpec>,
    /// The pairs a round covers, in call-index order.
    pairs: Vec<Pair>,
}

/// Applications per data draw.
const APPS: usize = 7;

impl Suite {
    /// The seven applications in Table 1 order, `draws` independent data
    /// draws of each, every one on both devices: a round covers
    /// `7 * draws` applications per device. Each data seed is drawn from
    /// `seed`. LULESH builds its mesh analytically and has no data seed;
    /// its input is the same for every seed.
    pub fn with_draws(seed: u64, draws: usize) -> Suite {
        Suite::every_pair(Suite::draws_of(seed, draws), Suite::devices())
    }

    /// The seven applications on both devices, each device with a data draw
    /// of its own. A round costs what one draw on both devices costs, while
    /// each application's data-dependent cost (K-Means convergence moves a
    /// K-Means sweep by up to 2x between data seeds) is averaged over two
    /// draws instead of repeated on the second device.
    pub fn draw_per_device(seed: u64) -> Suite {
        let devices = Suite::devices();
        let apps = Suite::draws_of(seed, devices.len());
        let pairs = (0..devices.len())
            .flat_map(|device| {
                (device * APPS..(device + 1) * APPS).map(move |app| Pair { app, device })
            })
            .collect();
        Suite {
            apps,
            devices,
            pairs,
        }
    }

    /// Every application on every device, devices outermost.
    pub fn every_pair(apps: Vec<Box<dyn Benchmark>>, devices: Vec<DeviceSpec>) -> Suite {
        let pairs = (0..devices.len())
            .flat_map(|device| (0..apps.len()).map(move |app| Pair { app, device }))
            .collect();
        Suite {
            apps,
            devices,
            pairs,
        }
    }

    fn devices() -> Vec<DeviceSpec> {
        vec![DeviceSpec::v100(), DeviceSpec::mi250x()]
    }

    fn draws_of(seed: u64, draws: usize) -> Vec<Box<dyn Benchmark>> {
        let mut rng = Rng::new(seed ^ 0xda7a_5eed);
        (0..draws).flat_map(|_| Suite::draw(&mut rng)).collect()
    }

    fn draw(rng: &mut Rng) -> Vec<Box<dyn Benchmark>> {
        let mut data_seed = || rng.next_u64();
        vec![
            Box::new(Lulesh {
                edge: 12,
                steps: 8,
                dt: 1e-4,
                ..Lulesh::default()
            }),
            Box::new(Leukocyte {
                n_cells: 8,
                grid: 16,
                iterations: 24,
                seed: data_seed(),
                ..Leukocyte::default()
            }),
            Box::new(BinomialOptions {
                n_options: 1024,
                tree_steps: 96,
                seed: data_seed(),
                ..BinomialOptions::default()
            }),
            Box::new(MiniFe {
                nx: 10,
                max_iters: 25,
                seed: data_seed(),
                ..MiniFe::default()
            }),
            Box::new(Blackscholes {
                seed: data_seed(),
                ..Blackscholes::default()
            }),
            Box::new(LavaMd {
                boxes_per_dim: 4,
                par_per_box: 16,
                seed: data_seed(),
                ..LavaMd::default()
            }),
            Box::new(KMeans {
                n_points: 2048,
                max_iters: 40,
                seed: data_seed(),
                ..KMeans::default()
            }),
        ]
    }

    /// The pairs a round covers.
    pub fn pairs(&self) -> Vec<Pair> {
        self.pairs.clone()
    }

    /// `p`'s position in [`Suite::pairs`].
    pub fn index(&self, p: Pair) -> usize {
        self.pairs
            .iter()
            .position(|&q| q == p)
            .expect("a pair of this suite")
    }

    pub fn bench(&self, p: Pair) -> &dyn Benchmark {
        self.apps[p.app].as_ref()
    }

    pub fn device(&self, p: Pair) -> &DeviceSpec {
        &self.devices[p.device]
    }

    pub fn label(&self, p: Pair) -> String {
        let draw = match self.draws() {
            1 => String::new(),
            _ => format!("#{}", self.draw_of(p)),
        };
        format!("{}{draw}@{}", self.bench(p).name(), self.device(p).name)
    }

    /// Per-pair error bounds for the tune workloads, in percent, indexed by
    /// [`Suite::index`]: 1.00 to 10.00 in quarter-percent steps, drawn from
    /// `seed`.
    pub fn bounds(&self, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed ^ 0xb0_0d5);
        (0..self.pairs.len())
            .map(|_| 1.0 + 0.25 * rng.below(37) as f64)
            .collect()
    }

    /// Number of data draws.
    pub fn draws(&self) -> usize {
        self.apps.len() / APPS
    }

    /// The data draw `p`'s application belongs to.
    pub fn draw_of(&self, p: Pair) -> usize {
        p.app / APPS
    }

    /// The quick-grid plan of every pair, in [`Suite::pairs`] order.
    pub fn plans(&self) -> Vec<Vec<SweepConfig>> {
        self.pairs()
            .into_iter()
            .map(|p| space::plan(self.bench(p), self.device(p), Scale::Quick))
            .collect()
    }

    /// One accurate run of every pair through the public run API: generates
    /// each application's input and brings the engine's workers up, so the
    /// first timed call pays no lazy set-up.
    pub fn warm_up(&self) {
        for p in self.pairs() {
            let bench = self.bench(p);
            let lp = LaunchParams::new(1, space::block_size_for(bench));
            bench
                .run(self.device(p), None, &lp)
                .unwrap_or_else(|e| panic!("{}: accurate warm-up run failed: {e}", self.label(p)));
        }
    }
}

/// The call order of every round: a fresh seeded permutation of the pairs
/// per round.
pub struct Order {
    rng: Rng,
    pairs: Vec<Pair>,
}

impl Order {
    pub fn new(seed: u64, pairs: Vec<Pair>) -> Order {
        Order {
            rng: Rng::new(seed ^ 0x0_4de4),
            pairs,
        }
    }

    pub fn next_round(&mut self) -> Vec<Pair> {
        let mut round = self.pairs.clone();
        self.rng.shuffle(&mut round);
        round
    }
}
