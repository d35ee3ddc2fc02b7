//! The repository benchmark. One run executes one workload:
//!
//! ```text
//! perfbench --workload <stabilize|serve|churn-wan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For about `--seconds` seconds it alternates set-ups of the workload
//! with passes of the workload from the set-up state, checking every
//! pass's output independently of the program. The last line of standard
//! output is one JSON object: with `--trace 0` the end-to-end metrics (pass
//! host time as the median over passes, set-up time as the mean over
//! set-ups, simulated figures from the passes, which must all agree), with
//! `--trace 1` the per-layer metrics of traced passes, interleaved with
//! untraced ones to report the tracing overhead. `perfbench/run.py` adds
//! the peak resident set size, which only the parent process can observe.

mod checks;
mod fixture;
mod load;
mod trace;
mod workloads;

use load::median;
use std::time::Instant;
use trace::{Layers, PER_LAYER};
use workloads::{Pass, Sim};

/// Minimum host time spent on set-ups before each pass.
const SETUP_SLICE_S: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(mut wl) = workloads::by_name(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    // Set-ups repeat before every pass, so that they sample the whole run
    // as the passes do.
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut setups: Vec<(f64, Layers)> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let slice = Instant::now();
        loop {
            setups.push(wl.setup());
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
        // Traced runs alternate untraced and traced passes.
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(wl.pass(traced));
        // Stop when the next set-up and pass would overrun `--seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + per_pass > args.seconds {
            break;
        }
    }

    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    let sim = passes[0].sim.clone();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.sim != sim {
            let kind = if p.layers.is_some() {
                "traced"
            } else {
                "untraced"
            };
            errors.push(format!(
                "pass {i} ({kind}) simulated a different outcome than pass 0: {:?} vs {:?}",
                summary(&p.sim),
                summary(&sim)
            ));
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let setup = Layers::median(setups.iter().map(|(_, l)| l));
        per_layer(&setup, &passes)
    } else {
        let host: Vec<f64> = passes.iter().map(|p| p.host_s).collect();
        // The mean, not the median: this host switches for seconds at a time
        // between speed states about 1.7x apart, and a sub-millisecond
        // set-up sees just one of them. The median of such samples jumps
        // between the states as their mix crosses one half; the mean follows
        // the mix smoothly, as a pass's host time does.
        let setup_s = setups.iter().map(|(s, _)| s).sum::<f64>() / setups.len() as f64;
        vec![
            ("setup_s", setup_s, "s"),
            ("run_s", median(&host), "s"),
            ("sim_rounds", sim.rounds as f64, "rounds"),
            ("degree_expansion", sim.degree_expansion, "ratio"),
            ("lookup_rounds_p50", sim.lookup_rounds(0.5), "rounds"),
            ("lookup_rounds_p99", sim.lookup_rounds(0.99), "rounds"),
        ]
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {name} is not a finite number"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    eprintln!(
        "perfbench: {} set-ups and {} passes of {} ({} traced), host s per pass {:?}",
        setups.len(),
        passes.len(),
        args.workload,
        passes.iter().filter(|p| p.layers.is_some()).count(),
        passes.iter().map(|p| p.host_s).collect::<Vec<_>>()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
}

fn summary(s: &Sim) -> (u64, u64, f64, u64) {
    (
        s.rounds,
        s.messages,
        s.degree_expansion,
        s.latency.iter().sum(),
    )
}

/// Per-layer figures: the median over traced passes of each figure, the
/// set-ups' own spans, and the tracing overhead against untraced passes.
fn per_layer(setup: &Layers, passes: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let traced = Layers::median(passes.iter().filter_map(|p| p.layers.as_ref()));
    let host = |want: bool| -> Vec<f64> {
        let sel = passes.iter().filter(|p| p.layers.is_some() == want);
        sel.map(|p| p.host_s).collect()
    };
    let overhead = 100.0 * (median(&host(true)) / median(&host(false)) - 1.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.overhead_pct" => overhead,
                _ => setup
                    .0
                    .get(name)
                    .or(traced.0.get(name))
                    .copied()
                    .unwrap_or(0.0),
            };
            (name, v, unit)
        })
        .collect()
}
