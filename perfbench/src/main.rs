//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <fine|coarse> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every run sets up a serving rig, a LITL-X interpreter and the two
//! applications from the seed, then measures three sections in turn —
//! `serve-tenants`, `litlx-loops` and `apps-steps` — checks every output
//! against a computation made apart from the program, and prints one JSON
//! object as its last line of output. The workload sets the grain of the
//! work: `fine` keeps units small so that runtime overhead dominates,
//! `coarse` makes them large so that computation does.
//!
//! With `--trace 0` the JSON holds the end-to-end metrics. With
//! `--trace 1` the same work runs once untraced and once with spans
//! recorded around every call into a layer, and the JSON holds the
//! per-layer metrics plus the overhead of tracing on each end-to-end
//! metric. Results and spans are also written under `--out`
//! (default `.bench_out`).

mod apps;
mod litlx;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use htvm_apps::md::system::SystemSpec;
use htvm_apps::neuro::network::NetworkSpec;

use crate::apps::{AppsCfg, AppsRig, AppsSection};
use crate::litlx::{LitlxCfg, LitlxRig, LitlxSection};
use crate::serve::{ServeCfg, ServeRig, ServeSection};
use crate::trace::Trace;
use crate::util::{json_num, json_str, median, peak_rss_mib, Ledger, Metrics};

/// Environment variables that change the program's behaviour; a run
/// refuses to start while one is set.
const BEHAVIOUR_VARS: [&str; 2] = ["HTVM_FAULTS", "HTVM_TOPOLOGY"];
/// Timed set-ups per round; `setup_s` is the median over the run's
/// rounds. Spreading them over the run lets a slow spell of the host fall
/// on set-up as it does on every section.
const SETUPS_PER_ROUND: usize = 4;
/// Shares of the run's measuring time given to each section.
const SERVE_SHARE: f64 = 0.4;
const LITLX_SHARE: f64 = 0.3;
const APPS_SHARE: f64 = 0.3;
/// Rounds per run; each round runs every section for its share of
/// `--seconds / ROUNDS`.
const ROUNDS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The sizes one workload runs at.
struct Workload {
    serve: ServeCfg,
    litlx: LitlxCfg,
    apps: AppsCfg,
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "fine" => Some(Workload {
            serve: ServeCfg {
                body_iters: 1_500,
                light_rps: 2_000.0,
                busy_rps: 10_000.0,
                drain_per_tenant: 320,
            },
            litlx: LitlxCfg {
                matmul_n: 16,
                stencil_n: 48,
                gather_n: 128,
                scan_n: 512,
            },
            apps: AppsCfg {
                md: SystemSpec::tiny(),
                md_steps: 100,
                neuro: NetworkSpec::tiny(),
                neuro_steps: 3_000,
            },
        }),
        "coarse" => Some(Workload {
            serve: ServeCfg {
                body_iters: 15_000,
                light_rps: 2_000.0,
                busy_rps: 8_000.0,
                drain_per_tenant: 320,
            },
            litlx: LitlxCfg {
                matmul_n: 32,
                stencil_n: 128,
                gather_n: 512,
                scan_n: 4_096,
            },
            apps: AppsCfg {
                md: SystemSpec::default(),
                md_steps: 10,
                neuro: NetworkSpec::default(),
                neuro_steps: 300,
            },
        }),
        _ => None,
    }
}

struct Rigs {
    serve: ServeRig,
    litlx: LitlxRig,
    apps: AppsRig,
}

fn build_rigs(w: &Workload, seed: u64) -> Rigs {
    // The applications' inputs first: they are plain computation on this
    // thread, and building them after the pools would share the CPUs with
    // the new workers' idle spinning.
    let apps = AppsRig::build(&w.apps, seed);
    let litlx = LitlxRig::build(&w.litlx, seed);
    Rigs {
        serve: ServeRig::build(),
        litlx,
        apps,
    }
}

/// Time one set-up of every rig; the rigs are dropped afterwards, untimed.
fn time_set_up(w: &Workload, seed: u64, id: u64, trace: Option<&mut Trace>) -> f64 {
    let t0 = Instant::now();
    let rigs = build_rigs(w, seed);
    let t1 = Instant::now();
    drop(rigs);
    if let Some(tr) = trace {
        tr.span(id, "setup", "", t0, t1);
    }
    (t1 - t0).as_secs_f64()
}

/// Measure set-up and every section, interleaved in `ROUNDS` rounds so
/// that a slow spell of the host falls on every section alike. Returns
/// (end-to-end, per-layer) metrics.
fn measure(
    rigs: &Rigs,
    w: &Workload,
    seed: u64,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    ledger: &mut Ledger,
) -> (Metrics, Metrics) {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let mut serve = ServeSection::new(&w.serve, seed);
    let mut litlx = LitlxSection::new(&rigs.litlx);
    let mut apps = AppsSection::new(&rigs.apps, &w.apps);
    let mut setup_secs = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND);
    for _ in 0..ROUNDS {
        for _ in 0..SETUPS_PER_ROUND {
            let id = setup_secs.len() as u64;
            setup_secs.push(time_set_up(w, seed, id, trace.as_deref_mut()));
        }
        serve.round(
            &rigs.serve,
            &w.serve,
            budget(SERVE_SHARE),
            trace.as_deref_mut(),
        );
        litlx.round(&rigs.litlx, budget(LITLX_SHARE), trace.as_deref_mut());
        apps.round(
            &rigs.apps,
            &w.apps,
            budget(APPS_SHARE),
            trace.as_deref_mut(),
        );
    }
    let traced = trace.is_some();
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_secs), "s");
    e2e.put("peak_rss_mib", peak_rss_mib(), "MiB");
    let mut layers = Metrics::default();
    for (m, lay, led) in [
        serve.finish(traced),
        litlx.finish(&rigs.litlx, traced),
        apps.finish(traced),
    ] {
        e2e.extend(m);
        layers.extend(lay);
        ledger.absorb(led);
    }
    (e2e, layers)
}

/// Which direction is better for an end-to-end metric.
fn higher_is_better(name: &str) -> bool {
    name.ends_with("_rps") || name.ends_with("steps_per_s")
}

fn result_json(correct: bool, ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() {
    for var in BEHAVIOUR_VARS {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run while {var} is set (it changes the program's behaviour)");
            std::process::exit(2);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fine|coarse> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (fine, coarse)",
            args.workload
        );
        std::process::exit(2);
    };
    let epoch = Instant::now();

    let rigs = build_rigs(&w, args.seed);
    let mut ledger = Ledger::default();
    let (e2e, _) = measure(&rigs, &w, args.seed, args.seconds, None, &mut ledger);

    let mut trace = Trace::new(epoch);
    let printed = if args.trace {
        let (traced, mut layers) = measure(
            &rigs,
            &w,
            args.seed,
            args.seconds,
            Some(&mut trace),
            &mut ledger,
        );
        eprintln!("self time per span (µs, traced run):");
        for (name, t) in trace.self_times_us() {
            eprintln!("  {name:<16} {t:>14.1}");
        }
        eprintln!("tracing overhead per end-to-end metric (untraced -> traced):");
        for (name, base, unit) in &e2e.0 {
            let t = traced.get(name).unwrap_or(*base);
            let cost = if higher_is_better(name) {
                base / t
            } else {
                t / base
            };
            let pct = (cost - 1.0) * 100.0;
            eprintln!("  {name:<20} {base:>12.3} -> {t:>12.3} {unit:<8} {pct:>+7.2}%");
            layers.put(format!("overhead.{name}"), pct, "%");
        }
        layers
    } else {
        e2e
    };

    let correct = ledger.failed == 0;
    for r in &ledger.reasons {
        eprintln!("perfbench: check failed: {r}");
    }
    let json = result_json(correct, &ledger, &printed);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{stem}.json")), format!("{json}\n")))
        .and_then(|()| {
            if args.trace {
                trace.write_jsonl(&args.out.join(format!("{stem}-spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write results under {}: {e}",
            args.out.display()
        );
    }
    drop(rigs);
    println!("{json}");
}
