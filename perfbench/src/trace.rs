//! The traced run's sink and layer ledger.
//!
//! While a traced round runs, a [`Collector`] thread drains every `hpac-obs`
//! ring every millisecond, so no ring wraps however many spans a call
//! records. The spans are then nested per recording thread and each is
//! charged its self time (its duration minus its direct children's) under
//! the layer that owns it. The benchmark's own call windows, stamped on the
//! obs clock, bound the client thread's wall time for the unexplained
//! share.

use hpac_obs::{CounterId, OwnedEvent, Payload, SpanId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Collector {
    stop: Arc<AtomicBool>,
    drainer: JoinHandle<Vec<OwnedEvent>>,
    before: hpac_obs::MetricsSnapshot,
}

impl Collector {
    /// Enable recording and start draining.
    pub fn start() -> Collector {
        // Nothing is recorded while the gate is off; this clears anything a
        // previous traced round left behind.
        let _ = hpac_obs::drain_events();
        let before = hpac_obs::snapshot();
        hpac_obs::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let drainer = std::thread::spawn(move || {
            let mut events = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                events.extend(hpac_obs::drain_events());
                std::thread::sleep(Duration::from_millis(1));
            }
            events.extend(hpac_obs::drain_events());
            events
        });
        Collector {
            stop,
            drainer,
            before,
        }
    }

    /// Disable recording and return what was recorded: the drained events
    /// and the counter deltas.
    pub fn finish(self) -> (Vec<OwnedEvent>, hpac_obs::MetricsSnapshot) {
        hpac_obs::set_enabled(false);
        self.stop.store(true, Ordering::SeqCst);
        let events = self.drainer.join().expect("trace drainer panicked");
        let delta = hpac_obs::snapshot().delta_since(&self.before);
        (events, delta)
    }
}

/// The stack layer a program span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Service,
    Tuner,
    Harness,
    Exec,
}

/// Each layer with the name of its self-time metric.
pub const LAYERS: [(Layer, &str); 4] = [
    (Layer::Service, "ledger.service_self_ms"),
    (Layer::Tuner, "ledger.tuner_self_ms"),
    (Layer::Harness, "ledger.harness_self_ms"),
    (Layer::Exec, "ledger.exec_self_ms"),
];

fn layer_of(id: SpanId) -> Layer {
    match id {
        SpanId::ServiceRequest => Layer::Service,
        SpanId::TunerTune | SpanId::TunerSearchGrid => Layer::Tuner,
        SpanId::BaselineSelect | SpanId::ConfigEval | SpanId::SweepApp => Layer::Harness,
        SpanId::EngineBatch | SpanId::EngineTask | SpanId::KernelWalk | SpanId::BlockTasks => {
            Layer::Exec
        }
    }
}

/// One span with its place in its thread's nesting.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub worker: u32,
    pub t0: u64,
    pub t1: u64,
    pub parent: Option<usize>,
    /// Time covered by direct children on the same thread.
    pub child_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.t1.saturating_sub(self.t0)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur().saturating_sub(self.child_ns)
    }
}

/// Nest spans per recording thread: a span's parent is the innermost
/// earlier span on the same thread that contains its start.
pub fn nest(events: &[OwnedEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = events
        .iter()
        .filter_map(|e| match e.payload {
            Payload::Span(id) => Some(Span {
                id,
                worker: e.worker,
                t0: e.t0_ns,
                t1: e.t1_ns,
                parent: None,
                child_ns: 0,
            }),
            Payload::Instant(_) => None,
        })
        .collect();
    spans.sort_by_key(|s| (s.worker, s.t0, std::cmp::Reverse(s.t1)));
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            if spans[top].worker == spans[i].worker && spans[top].t1 > spans[i].t0 {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            let covered = spans[i].t1.min(spans[top].t1) - spans[i].t0;
            spans[top].child_ns += covered;
            spans[i].parent = Some(top);
        }
        stack.push(i);
    }
    spans
}

/// Layer totals and derived per-layer figures of one or more traced
/// rounds.
pub struct Ledger {
    pub spans: Vec<Span>,
    /// Self time per layer, in [`LAYERS`] order.
    pub self_ns: [u64; 4],
    /// Share of the client's call time that no program span covers.
    pub unexplained_frac: f64,
}

/// Build the ledger. `client` holds the rings of threads that are not
/// engine pool workers (the benchmark's own calling thread); `calls` are the
/// benchmark's call windows on the obs clock.
pub fn ledger(events: &[OwnedEvent], client: &[u32], calls: &[(u64, u64)]) -> Ledger {
    let spans = nest(events);
    let mut self_ns = [0u64; 4];
    for s in &spans {
        let l = layer_of(s.id);
        let slot = LAYERS
            .iter()
            .position(|(x, _)| *x == l)
            .expect("every layer listed");
        self_ns[slot] += s.self_ns();
    }
    let call_ns: u64 = calls.iter().map(|(a, b)| b - a).sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && client.contains(&s.worker))
        .map(|s| {
            calls
                .iter()
                .map(|&(a, b)| s.t1.min(b).saturating_sub(s.t0.max(a)))
                .sum::<u64>()
        })
        .sum();
    Ledger {
        spans,
        self_ns,
        unexplained_frac: if call_ns == 0 {
            0.0
        } else {
            call_ns.saturating_sub(covered) as f64 / call_ns as f64
        },
    }
}

impl Ledger {
    pub fn of(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.id == id)
    }

    /// Total duration of direct children of the spans `parent` selects.
    pub fn children_ns(&self, parent: SpanId) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].id == parent))
            .map(Span::dur)
            .sum()
    }

    /// Total time kernel walks took, outer walks only.
    pub fn walk_ns(&self) -> u64 {
        let walk = |id| matches!(id, SpanId::KernelWalk | SpanId::BlockTasks);
        self.spans
            .iter()
            .filter(|s| walk(s.id) && !s.parent.is_some_and(|p| walk(self.spans[p].id)))
            .map(Span::dur)
            .sum()
    }
}

/// Counter totals of a snapshot delta, summed over several rounds.
#[derive(Default)]
pub struct Counters {
    totals: Vec<u64>,
    pub busy_ns: u64,
    pub dropped: u64,
}

impl Counters {
    pub fn add(&mut self, d: &hpac_obs::MetricsSnapshot) {
        if self.totals.is_empty() {
            self.totals = vec![0; CounterId::ALL.len()];
        }
        for (t, &c) in self.totals.iter_mut().zip(CounterId::ALL.iter()) {
            *t += d.counter(c);
        }
        self.busy_ns += d.busy_ns_total();
        self.dropped += d.workers.iter().map(|w| w.dropped).sum::<u64>();
    }

    pub fn get(&self, c: CounterId) -> u64 {
        self.totals.get(c as usize).copied().unwrap_or(0)
    }

    /// `hits / (hits + misses)`, 0 when there were no lookups.
    pub fn rate(&self, hits: CounterId, misses: CounterId) -> f64 {
        let (h, m) = (self.get(hits), self.get(misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: u32, id: SpanId, t0: u64, t1: u64) -> OwnedEvent {
        OwnedEvent {
            seq: 0,
            worker,
            payload: Payload::Span(id),
            t0_ns: t0,
            t1_ns: t1,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let events = [
            span(0, SpanId::SweepApp, 0, 100),
            span(0, SpanId::EngineBatch, 10, 90),
            span(0, SpanId::EngineTask, 10, 50),
            span(0, SpanId::ConfigEval, 12, 48),
            span(0, SpanId::KernelWalk, 20, 40),
            // Another thread's task does not nest under thread 0's batch.
            span(1, SpanId::EngineTask, 10, 80),
        ];
        let l = ledger(&events, &[0], &[(0, 120)]);
        // harness: sweep 100-80 + eval 36-20; exec: batch 80-40 + task 40-36
        // + walk 20 + thread 1's task 70.
        assert_eq!(l.self_ns, [0, 0, 36, 40 + 4 + 20 + 70]);
        assert!((l.unexplained_frac - 20.0 / 120.0).abs() < 1e-12);
        assert_eq!(l.walk_ns(), 20);
        assert_eq!(l.children_ns(SpanId::EngineBatch), 40);
    }
}
