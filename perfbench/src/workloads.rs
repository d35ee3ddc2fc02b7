//! The three workloads. Each pass of a workload replays the same simulated
//! scenario from the same set-up state, so its simulated outcome ([`Sim`])
//! must repeat exactly from pass to pass, traced or not; only host time
//! varies.

use crate::checks::{self, Hosts};
use crate::fixture;
use crate::load::{grouped_quantile, merge_hist, Lookups};
use crate::trace::{drive, rounds_only, Clock, Layers, Rt};
use rand::SeedableRng;
use ssim::fault::Fault;
use ssim::init::Shape;
use ssim::{Config, NetModel, RequestRecord, WorkloadConfig};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The simulated outcome of one pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sim {
    /// Simulated rounds until the pass's work was done.
    pub rounds: u64,
    /// Protocol messages sent in the measured part.
    pub messages: u64,
    /// Degree expansion (Section 2.2), averaged over the pass's overlays.
    pub degree_expansion: f64,
    /// `latency[l]`: lookups completed `l` rounds after they were due.
    pub latency: Vec<u64>,
}

impl Sim {
    pub fn lookup_rounds(&self, q: f64) -> f64 {
        grouped_quantile(&self.latency, q)
    }
}

/// One pass: its measured host time, simulated outcome, operation counts,
/// check failures and (traced passes only) per-layer figures.
pub struct Pass {
    pub host_s: f64,
    pub sim: Sim,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layers: Option<Layers>,
}

pub trait Workload {
    /// Build the state every pass starts from. Returns the host seconds it
    /// took, not counting the release of what it built only to be timed,
    /// and its per-layer spans.
    fn setup(&mut self) -> (f64, Layers);
    /// Run one pass from the set-up state.
    fn pass(&mut self, traced: bool) -> Pass;
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "stabilize" => Some(Box::new(Stabilize { seed })),
        "serve" => Some(Box::new(Serve {
            seed,
            snapshot: Vec::new(),
        })),
        "churn-wan" => Some(Box::new(ChurnWan { seed })),
        _ => None,
    }
}

/// Mix the benchmark seed with a stream label into an RNG seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn quiet_config(seed: u64) -> Config {
    let mut cfg = Config::seeded(seed);
    cfg.record_rounds = false;
    cfg
}

/// Round budget of a from-scratch stabilization: `E · (8⌈log₂ n⌉ + 16)`,
/// the experiment harness's budget.
fn budget(n: u32, hosts: usize, delta: u64) -> u64 {
    let e = avatar_cbt::Schedule::new(n).with_delta(delta).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (8 * logn + 16)
}

/// Run the in-flight lookup tail out after the generator stopped.
fn drain(rt: &mut Rt, ttl: u64) {
    rt.run_until(|rt| rt.request_stats().in_flight == 0, ttl + 16);
}

/// The independent output checks every workload ends with: ranges and
/// fingers on the final topology, the given completed lookups (at least
/// one), and both conservation laws.
fn check_final(rt: &Rt, n: u32, lookups: &[RequestRecord], errors: &mut Vec<String>) {
    let hosts = match Hosts::new(n, rt.ids()) {
        Ok(h) => h,
        Err(e) => return errors.push(e),
    };
    let claims = rt.programs().map(|(v, p)| (v, p.core.cbt.core.range));
    let lookups = match checks::check_lookups(&hosts, lookups) {
        Ok(0) => Err("no completed lookup to check".to_string()),
        Ok(_) => Ok(()),
        Err(e) => Err(e),
    };
    let results = [
        checks::check_ranges(&hosts, claims),
        checks::check_fingers(&hosts, &rt.topology().edges()),
        lookups,
        checks::check_request_conservation(rt.request_stats()),
        checks::check_net_conservation(&rt.net_stats()),
    ];
    errors.extend(results.into_iter().filter_map(Result::err));
}

/// The per-layer spans of a set-up that only builds.
fn build_span(seconds: f64) -> Layers {
    let mut layers = Layers::default();
    layers.add("setup.build_ms", seconds * 1e3);
    layers
}

/// Lookups that did not complete are the workload's failed operations.
fn failed_lookups(rt: &Rt) -> u64 {
    let s = rt.request_stats();
    s.failed + s.in_flight
}

// ---- stabilize -------------------------------------------------------------

/// From-scratch Avatar(Chord) from a random connected topology: ideal
/// network, synchronous daemon, one thread. The stabilizations use fixed
/// seeds, so their simulated figures are comparable between commits; the
/// benchmark seed draws the lookups each stabilized overlay then serves
/// (outside the measured time) to check its routing.
struct Stabilize {
    seed: u64,
}

const STAB_N: u32 = 1024;
const STAB_HOSTS: usize = 128;
const STAB_SEEDS: [u64; 3] = [2000, 2001, 2002];
const STAB_LOOKUPS_PER_ROUND: u32 = 64;
const STAB_LOOKUP_ROUNDS: u64 = 100;

fn stabilize_start(seed: u64) -> Rt {
    let target = chord_scaffold::ChordTarget::classic(STAB_N);
    chord_scaffold::runtime_from_shape(target, STAB_HOSTS, Shape::Random, quiet_config(seed))
}

impl Workload for Stabilize {
    fn setup(&mut self) -> (f64, Layers) {
        let t0 = Instant::now();
        let built = std::hint::black_box(STAB_SEEDS.map(stabilize_start));
        let seconds = t0.elapsed().as_secs_f64();
        drop(built);
        (seconds, build_span(seconds))
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let mut p = Pass::new(traced);
        let mut clock = Clock::default();
        let mut expansion = 0.0;
        let budget = budget(STAB_N, STAB_HOSTS, 1);
        let epoch = avatar_cbt::Schedule::new(STAB_N).epoch_len() as f64;
        for seed in STAB_SEEDS {
            let mut rt = stabilize_start(seed);
            clock.scaffold_round = None;
            let t0 = Instant::now();
            let out = drive(
                &mut rt,
                chord_scaffold::legality(),
                budget,
                traced.then_some(&mut clock),
                true,
            );
            p.host_s += t0.elapsed().as_secs_f64();
            p.attempted += 1;
            p.sim.rounds += out.rounds;
            p.sim.messages += rt.metrics().total_messages;
            expansion += rt.metrics().degree_expansion(rt.topology().max_degree());
            if let Some(layers) = &mut p.layers {
                layers.read_runtime(&rt);
                let scaffold = clock.scaffold_round.unwrap_or(out.rounds) as f64;
                layers.add("avatar-cbt.rounds_to_scaffold", scaffold);
                layers.add("avatar-cbt.epochs_to_scaffold", scaffold / epoch);
                layers.add(
                    "chord-scaffold.rounds_scaffold_to_chord",
                    out.rounds as f64 - scaffold,
                );
            }
            if out.rounds_if_satisfied().is_none() {
                p.failed += 1;
                continue;
            }

            // Serve lookups on the stabilized overlay: a routing check of
            // the protocol's output, outside the measured time.
            let lookups = Lookups::new(STAB_LOOKUPS_PER_ROUND, STAB_N, mix(self.seed, seed));
            let stop = lookups.stopper();
            let wcfg = WorkloadConfig {
                record_requests: true,
                ..WorkloadConfig::default()
            };
            rt.attach_workload(lookups, wcfg);
            rt.run(STAB_LOOKUP_ROUNDS);
            stop.store(true, Ordering::Relaxed);
            drain(&mut rt, wcfg.ttl);
            let s = rt.request_stats();
            p.attempted += s.issued;
            p.failed += failed_lookups(&rt);
            merge_hist(&mut p.sim.latency, &s.latency_histogram);
            if let Some(layers) = &mut p.layers {
                layers.read_requests(&rt);
            }
            check_final(&rt, STAB_N, &s.records, &mut p.errors);
        }
        p.sim.degree_expansion = expansion / STAB_SEEDS.len() as f64;
        p.finish(&clock)
    }
}

// ---- serve -----------------------------------------------------------------

/// An installed-legal Avatar(Chord) at scale on two threads, serving an
/// open loop of lookups. Set-up builds the fixture from generated ids and
/// round-trips it through `save_snapshot` / `restore_snapshot` in memory;
/// every pass restores that snapshot.
struct Serve {
    seed: u64,
    snapshot: Vec<u8>,
}

const SERVE_N: u32 = 65_536;
const SERVE_HOSTS: usize = 16_384;
const SERVE_FIXTURE_SEED: u64 = 65_536;
const SERVE_THREADS: usize = 2;
const SERVE_LOOKUPS_PER_ROUND: u32 = 64;
const SERVE_ROUNDS: u64 = 400;

fn serve_config() -> Config {
    quiet_config(SERVE_FIXTURE_SEED).threads(SERVE_THREADS)
}

impl Workload for Serve {
    fn setup(&mut self) -> (f64, Layers) {
        // Build, save, release, restore: the original and the copy are never
        // held together. Releases are not timed.
        drop(std::mem::take(&mut self.snapshot));
        let t0 = Instant::now();
        let rt = fixture::legal_chord(
            SERVE_N,
            SERVE_HOSTS,
            serve_config(),
            NetModel::ideal(),
            SERVE_FIXTURE_SEED ^ 0xA5A5_5A5A,
        );
        let t1 = Instant::now();
        self.snapshot = rt.save_snapshot();
        let t2 = Instant::now();
        drop(rt);
        let t3 = Instant::now();
        let restored = chord_scaffold::restore_runtime(&self.snapshot, serve_config());
        let restored = std::hint::black_box(restored.expect("a snapshot just saved restores"));
        let t4 = Instant::now();
        drop(restored);
        let mut layers = Layers::default();
        let spans = [
            ("setup.build_ms", t1 - t0),
            ("snapshot.encode_ms", t2 - t1),
            ("snapshot.decode_ms", t4 - t3),
        ];
        for (name, span) in spans {
            layers.add(name, span.as_secs_f64() * 1e3);
        }
        layers.add(
            "snapshot.bytes_per_host",
            self.snapshot.len() as f64 / SERVE_HOSTS as f64,
        );
        ((t2 - t0 + (t4 - t3)).as_secs_f64(), layers)
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let mut p = Pass::new(traced);
        let mut clock = Clock::default();
        let mut rt = match chord_scaffold::restore_runtime(&self.snapshot, serve_config()) {
            Ok(rt) => rt,
            Err(e) => {
                p.errors
                    .push(format!("fixture snapshot does not restore: {e:?}"));
                return p;
            }
        };
        let lookups = Lookups::new(SERVE_LOOKUPS_PER_ROUND, SERVE_N, mix(self.seed, 1));
        let stop = lookups.stopper();
        let wcfg = WorkloadConfig {
            record_requests: true,
            ..WorkloadConfig::default()
        };
        rt.attach_workload(lookups, wcfg);
        let t0 = Instant::now();
        drive(
            &mut rt,
            rounds_only(),
            SERVE_ROUNDS,
            traced.then_some(&mut clock),
            false,
        );
        p.host_s = t0.elapsed().as_secs_f64();
        if let Some(layers) = &mut p.layers {
            layers.read_runtime(&rt);
        }
        stop.store(true, Ordering::Relaxed);
        drain(&mut rt, wcfg.ttl);
        let s = rt.request_stats();
        p.sim = Sim {
            rounds: rt.round(),
            messages: rt.metrics().total_messages,
            degree_expansion: rt.metrics().degree_expansion(rt.topology().max_degree()),
            latency: s.latency_histogram.clone(),
        };
        p.attempted = s.issued;
        p.failed = failed_lookups(&rt);
        if let Some(layers) = &mut p.layers {
            layers.read_requests(&rt);
        }
        check_final(&rt, SERVE_N, &s.records, &mut p.errors);
        p.finish(&clock)
    }
}

// ---- churn-wan -------------------------------------------------------------

/// An installed-legal Avatar(Chord) under the `wan` network model
/// (Δ = 4), one thread: one leave, then one join an epoch later, then the
/// heal to legality, with open-loop lookups racing it. The overlay and the
/// churn are fixed; the benchmark seed draws the lookups. Lookups start
/// after the leave, so none is caught on the departing host, and their TTL
/// outlasts the heal budget, so none expires. A second stream then serves
/// the healed overlay, unmeasured, and every one of its lookups is checked.
struct ChurnWan {
    seed: u64,
}

const CHURN_N: u32 = 256;
const CHURN_HOSTS: usize = 48;
const CHURN_FIXTURE_SEED: u64 = 13;
const CHURN_LOOKUPS_PER_ROUND: u32 = 8;
/// Alternating leave / join events, one per epoch.
const CHURN_EVENTS: usize = 2;
/// Rounds of checked lookups served on the re-legalized overlay.
const CHURN_CHECK_ROUNDS: u64 = 256;

fn churn_start() -> Rt {
    fixture::legal_chord(
        CHURN_N,
        CHURN_HOSTS,
        quiet_config(CHURN_FIXTURE_SEED),
        NetModel::wan(),
        CHURN_FIXTURE_SEED ^ 0xA5A5_5A5A,
    )
}

impl Workload for ChurnWan {
    fn setup(&mut self) -> (f64, Layers) {
        let t0 = Instant::now();
        let built = std::hint::black_box(churn_start());
        let seconds = t0.elapsed().as_secs_f64();
        drop(built);
        (seconds, build_span(seconds))
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let mut p = Pass::new(traced);
        let mut clock = Clock::default();
        let mut rt = churn_start();
        let model = rt.net_model();
        let delta = model.delivery_bound();
        let heal_budget = 2 * delta * budget(CHURN_N, CHURN_HOSTS, 1);
        let gap = avatar_cbt::Schedule::new(CHURN_N)
            .with_delta(delta)
            .epoch_len();
        let racing = Lookups::new(CHURN_LOOKUPS_PER_ROUND, CHURN_N, mix(self.seed, 2));
        let stop = racing.stopper();
        // No per-lookup log while racing: it would be most of the process's
        // memory and move `peak_rss_mb` with the number of passes.
        let wcfg = WorkloadConfig {
            ttl: 2 * heal_budget,
            ..WorkloadConfig::default()
        };
        rt.attach_workload(racing, wcfg);
        let mut fault_rng = rand::rngs::SmallRng::seed_from_u64(CHURN_FIXTURE_SEED ^ 0x57_0B_13);
        let start = rt.round();
        let mut inject_s = 0.0;
        let t0 = Instant::now();
        for event in 0..CHURN_EVENTS {
            let fault = if event % 2 == 0 {
                Fault::Leave {
                    id: None,
                    keep_connected: true,
                }
            } else {
                let free = (0..CHURN_N).find(|v| !rt.topology().contains(*v));
                Fault::Join {
                    id: free.expect("guest space has room"),
                    attach: 2,
                }
            };
            let ti = Instant::now();
            ssim::fault::inject(&mut rt, &fault, &mut fault_rng);
            inject_s += ti.elapsed().as_secs_f64();
            drive(
                &mut rt,
                rounds_only(),
                gap,
                traced.then_some(&mut clock),
                false,
            );
        }
        let heal = drive(
            &mut rt,
            chord_scaffold::legality(),
            heal_budget,
            traced.then_some(&mut clock),
            false,
        );
        p.host_s = t0.elapsed().as_secs_f64();
        let legal_at = rt.round();
        p.attempted += 1;
        if heal.rounds_if_satisfied().is_none() {
            p.failed += 1;
        }
        if let Some(layers) = &mut p.layers {
            layers.read_runtime(&rt);
            layers.add("membership.events", CHURN_EVENTS as f64);
            layers.add("membership.inject_us", inject_s * 1e6);
        }
        let messages = rt.metrics().total_messages;
        stop.store(true, Ordering::Relaxed);
        drain(&mut rt, wcfg.ttl);
        let latency = rt.request_stats().latency_histogram.clone();
        if let Some(layers) = &mut p.layers {
            layers.read_requests(&rt);
        }

        // Routing on the healed membership, checked lookup by lookup.
        let check = Lookups::new(CHURN_LOOKUPS_PER_ROUND, CHURN_N, mix(self.seed, 3));
        let stop = check.stopper();
        let check_cfg = WorkloadConfig {
            record_requests: true,
            ..WorkloadConfig::default()
        };
        rt.attach_workload(check, check_cfg);
        rt.run(CHURN_CHECK_ROUNDS);
        stop.store(true, Ordering::Relaxed);
        drain(&mut rt, check_cfg.ttl);
        p.sim = Sim {
            rounds: legal_at - start,
            messages,
            degree_expansion: rt.metrics().degree_expansion(rt.topology().max_degree()),
            latency,
        };
        let s = rt.request_stats();
        p.attempted += s.issued;
        p.failed += failed_lookups(&rt);
        check_final(&rt, CHURN_N, &s.records, &mut p.errors);
        p.finish(&clock)
    }
}

impl Pass {
    fn new(traced: bool) -> Self {
        Self {
            host_s: 0.0,
            sim: Sim::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            layers: traced.then(Layers::default),
        }
    }

    fn finish(mut self, clock: &Clock) -> Self {
        let host_ns = self.host_s * 1e9;
        self.layers = self.layers.map(|l| l.finish(clock, host_ns));
        self
    }
}
