//! Per-layer tracing from the benchmark's side of the API.
//!
//! Nothing inside the program is instrumented. A traced pass wraps the
//! monitor it already drives with in [`Timed`], which timestamps
//! consecutive `observe` calls: the gap between two observes is one round
//! of `Runtime::run_monitored`, batched exactly as in an untraced pass
//! (single `step` calls would change how the pool batches rounds). The
//! other layers are read from the counters the runtime exposes
//! (`perf_counters`, `request_stats`, `net_stats`, `mem_footprint`,
//! `metrics`) and from spans around the benchmark's own calls into
//! `ssim::snapshot` and `ssim::fault`.

use crate::load::{median, quantile};
use chord_scaffold::{ChordTarget, Phase, ScaffoldProgram};
use ssim::{Monitor, MonitorOutcome, Runtime, Verdict};
use std::collections::BTreeMap;
use std::time::Instant;

pub type Rt = Runtime<ScaffoldProgram<ChordTarget>>;

/// Every per-layer metric the traced run reports, with its unit. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.round_ms_p50", "ms"),
    ("runtime.round_ms_p99", "ms"),
    ("runtime.ns_per_activation", "ns"),
    ("runtime.activations", "count"),
    ("runtime.messages", "count"),
    ("runtime.rounds_per_s", "1/s"),
    ("par.par_rounds", "count"),
    ("par.seq_rounds", "count"),
    ("par.syncs_per_round", "ratio"),
    ("workload.forwards", "count"),
    ("workload.retries", "count"),
    ("workload.forwards_per_completed", "ratio"),
    ("net.sent", "count"),
    ("net.dropped", "count"),
    ("net.duplicated", "count"),
    ("net.delivered_per_sent", "ratio"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes_per_host", "bytes"),
    ("setup.build_ms", "ms"),
    ("monitor.observe_us_p50", "us"),
    ("monitor.observe_share", "ratio"),
    ("topology.links_added", "count"),
    ("topology.links_removed", "count"),
    ("topology.peak_degree", "count"),
    ("mem.topology_bytes", "bytes"),
    ("mem.programs_bytes", "bytes"),
    ("mem.inboxes_bytes", "bytes"),
    ("mem.transit_bytes", "bytes"),
    ("mem.workload_bytes", "bytes"),
    ("mem.engine_bytes", "bytes"),
    ("membership.events", "count"),
    ("membership.inject_us", "us"),
    ("avatar-cbt.rounds_to_scaffold", "rounds"),
    ("avatar-cbt.epochs_to_scaffold", "epochs"),
    ("chord-scaffold.rounds_scaffold_to_chord", "rounds"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer figures of one pass, keyed by the names in [`PER_LAYER`].
#[derive(Default, Clone, Debug)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// The median of each figure over `all` (figures some lack are taken
    /// over those that have them).
    pub fn median<'a>(all: impl Iterator<Item = &'a Layers>) -> Layers {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for layers in all {
            for (&k, &v) in &layers.0 {
                values.entry(k).or_default().push(v);
            }
        }
        Layers(values.into_iter().map(|(k, vs)| (k, median(&vs))).collect())
    }

    /// Counters the runtime keeps, read once the pass's measured part ends.
    pub fn read_runtime(&mut self, rt: &Rt) {
        let m = rt.metrics();
        self.add("runtime.activations", m.total_activations as f64);
        self.add("runtime.messages", m.total_messages as f64);
        self.add("topology.links_added", m.total_links_added as f64);
        self.add("topology.links_removed", m.total_links_removed as f64);
        self.max("topology.peak_degree", m.peak_degree as f64);
        let pc = rt.perf_counters();
        self.add("par.par_rounds", pc.par_rounds as f64);
        self.add("par.seq_rounds", pc.seq_rounds as f64);
        self.add("par.syncs", pc.syncs as f64);
        let net = rt.net_stats();
        self.add("net.sent", net.sent as f64);
        self.add("net.dropped", net.dropped() as f64);
        self.add("net.duplicated", net.duplicated as f64);
        self.add("net.delivered", net.delivered as f64);
        let mem = rt.mem_footprint();
        self.max("mem.topology_bytes", mem.topology as f64);
        self.max("mem.programs_bytes", mem.programs as f64);
        self.max("mem.inboxes_bytes", mem.inboxes as f64);
        self.max("mem.transit_bytes", mem.transit as f64);
        self.max("mem.workload_bytes", mem.workload as f64);
        self.max("mem.engine_bytes", mem.engine as f64);
    }

    /// Lookup counters, read after the in-flight tail drained.
    pub fn read_requests(&mut self, rt: &Rt) {
        let s = rt.request_stats();
        self.add("workload.forwards", s.forwards as f64);
        self.add("workload.retries", s.retries as f64);
        self.add("workload.completed", s.completed as f64);
    }

    /// Turn the summed raw figures into the reported ratios and drop the
    /// helper keys; `measured_ns` is the pass's measured host time.
    pub fn finish(mut self, clock: &Clock, measured_ns: f64) -> Self {
        let mut take = |k: &str| self.0.remove(k).unwrap_or(0.0);
        let syncs = take("par.syncs");
        let delivered = take("net.delivered");
        let completed = take("workload.completed");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let rounds = clock.round_ns.len() as f64;
        let round_ns: Vec<f64> = clock.round_ns.iter().map(|&n| n as f64).collect();
        let observe_ns: Vec<f64> = clock.observe_ns.iter().map(|&n| n as f64).collect();
        let in_rounds: f64 = round_ns.iter().sum();
        let get = |s: &Self, k: &str| s.0.get(k).copied().unwrap_or(0.0);
        let (par, seq) = (get(&self, "par.par_rounds"), get(&self, "par.seq_rounds"));
        let (sent, dup) = (get(&self, "net.sent"), get(&self, "net.duplicated"));
        let activations = get(&self, "runtime.activations");
        let forwards = get(&self, "workload.forwards");
        let set = [
            ("runtime.round_ms_p50", quantile(&round_ns, 0.5) / 1e6),
            ("runtime.round_ms_p99", quantile(&round_ns, 0.99) / 1e6),
            ("runtime.ns_per_activation", ratio(in_rounds, activations)),
            ("runtime.rounds_per_s", ratio(rounds * 1e9, measured_ns)),
            ("par.syncs_per_round", ratio(syncs, par + seq)),
            ("net.delivered_per_sent", ratio(delivered, sent + dup)),
            (
                "workload.forwards_per_completed",
                ratio(forwards, completed),
            ),
            ("monitor.observe_us_p50", quantile(&observe_ns, 0.5) / 1e3),
            (
                "monitor.observe_share",
                ratio(observe_ns.iter().sum(), measured_ns),
            ),
        ];
        for (k, v) in set {
            self.0.insert(k, v);
        }
        self
    }
}

/// What a traced pass records at round boundaries.
#[derive(Default)]
pub struct Clock {
    last: Option<Instant>,
    pub round_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    /// Absolute round at which no host was left in `Phase::Cbt`, when the
    /// pass asked for that probe.
    pub scaffold_round: Option<u64>,
}

/// A monitor wrapper timing the rounds between its observations.
struct Timed<'a, M> {
    inner: M,
    clock: &'a mut Clock,
    probe_scaffold: bool,
}

impl<M: Monitor<ScaffoldProgram<ChordTarget>>> Monitor<ScaffoldProgram<ChordTarget>>
    for Timed<'_, M>
{
    fn observe(&mut self, rt: &Rt) -> Verdict {
        let t0 = Instant::now();
        if let Some(last) = self.clock.last {
            self.clock.round_ns.push((t0 - last).as_nanos() as u64);
        }
        let verdict = self.inner.observe(rt);
        self.clock.observe_ns.push(t0.elapsed().as_nanos() as u64);
        // The probe is the traced run's own work: kept out of both spans.
        if self.probe_scaffold
            && self.clock.scaffold_round.is_none()
            && rt.programs().all(|(_, p)| p.core.phase != Phase::Cbt)
        {
            self.clock.scaffold_round = Some(rt.round());
        }
        self.clock.last = Some(Instant::now());
        verdict
    }
}

/// `rt.run_monitored(inner, max_rounds)`, traced when a clock is given.
pub fn drive<M: Monitor<ScaffoldProgram<ChordTarget>>>(
    rt: &mut Rt,
    mut inner: M,
    max_rounds: u64,
    clock: Option<&mut Clock>,
    probe_scaffold: bool,
) -> MonitorOutcome {
    match clock {
        None => rt.run_monitored(&mut inner, max_rounds),
        Some(clock) => {
            clock.last = None;
            let mut timed = Timed {
                inner,
                clock,
                probe_scaffold,
            };
            rt.run_monitored(&mut timed, max_rounds)
        }
    }
}

/// A monitor that never ends a run: drives exactly `max_rounds` rounds.
pub fn rounds_only() -> impl Monitor<ScaffoldProgram<ChordTarget>> {
    ssim::monitor::goal("fixed-rounds", |_: &Rt| false)
}
