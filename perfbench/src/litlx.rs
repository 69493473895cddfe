//! The LITL-X section: a fixed suite of generated programs, each run from
//! source through `parse` and `Interp::run` on one interpreter with
//! default settings, in a `hinted` variant (`@hint(pipeline)` on the main
//! nest) and a `plain` one.
//!
//! The traced run also calls each stage of the pipelined path on the
//! hinted main nests by its public function: `lower_forall`,
//! `schedule_all_levels` with `plan_native`, `compile` and
//! `run_partitioned_body`.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use htvm_adapt::hints::KnowledgeBase;
use htvm_adapt::pipeline::{NAIVE_POLICY, PIPELINED_POLICY};
use htvm_core::{Htvm, HtvmConfig, Pool, SharedRegion, Topology};
use htvm_ssp::exec::{plan_native, run_partitioned_body, NestBody, RunBody};
use htvm_ssp::ssp::{schedule_all_levels, SspConfig};
use litlx::lang::{compile, lower_forall, parse, Interp, Program, RunOutput, Stmt, Value};

use crate::trace::Trace;
use crate::util::{median, Ledger, Metrics, Rng};

#[derive(Debug, Clone, Copy)]
pub struct LitlxCfg {
    pub matmul_n: usize,
    pub stencil_n: usize,
    pub gather_n: usize,
    pub scan_n: usize,
}

/// Which SSP path a hinted main nest must take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Affine: pipelined and compiled, no wavefront.
    Pipelined,
    /// Non-affine: lowering bails to the naive fan-out.
    Bailout,
    /// Carried recurrence: pipelined through the signal wavefront.
    Wavefront,
}

/// One generated program of the suite.
struct Prog {
    name: &'static str,
    hinted: bool,
    src: String,
    /// The line the program must print, computed in plain Rust.
    expect: String,
    /// The path the hinted main nest must take.
    path: Path,
    /// Init nests ahead of the main nest; hinted, they are pipelined.
    inits: u64,
    /// Bounds of every top-level nest and the values its free variables
    /// start with, for calling the pipeline's stages directly.
    bounds: Vec<(i64, i64)>,
    env: Vec<(&'static str, EnvVal)>,
}

#[derive(Clone)]
enum EnvVal {
    Num(f64),
    Arr(Vec<f64>),
}

fn fmt_num(v: f64) -> String {
    format!("{}", v as i64)
}

/// One generated program: its declarations, the init nests that fill its
/// inputs, its main nest and the line that prints the result, plus the
/// result computed in plain Rust. For calling the pipeline's stages
/// directly it also carries the bounds of every top-level nest (inits,
/// then main) and the values the free variables hold before the first.
struct Gen {
    decls: String,
    inits: Vec<String>,
    nest: String,
    print: String,
    expect: f64,
    bounds: Vec<(i64, i64)>,
    env: Vec<(&'static str, EnvVal)>,
}

fn matmul(n: usize, rng: &mut Rng) -> Gen {
    let (p, q) = (rng.range(3, 9), rng.range(3, 9));
    let a: Vec<f64> = (0..n * n).map(|i| (i as u64 % p) as f64 + 1.0).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i as u64 % q) as f64 - 1.0).collect();
    let mut sum = 0.0;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                sum += a[i * n + k] * b[k * n + j];
            }
        }
    }
    let nn = (n * n) as i64;
    Gen {
        decls: format!(
            "let n = {n};\n    let a = array(n * n); let b = array(n * n); let c = array(n * n);"
        ),
        inits: vec![
            format!("forall i in 0..n * n {{ a[i] = i % {p} + 1; }}"),
            format!("forall i in 0..n * n {{ b[i] = i % {q} - 1; }}"),
        ],
        nest: "forall i in 0..n {
      forall j in 0..n {
        for k in 0..n {
          c[i * n + j] += a[i * n + k] * b[k * n + j];
        }
      }
    }"
        .to_string(),
        print: "print(sum(c));".to_string(),
        expect: sum,
        bounds: vec![(0, nn), (0, nn), (0, n as i64)],
        env: vec![
            ("n", EnvVal::Num(n as f64)),
            ("a", EnvVal::Arr(vec![0.0; n * n])),
            ("b", EnvVal::Arr(vec![0.0; n * n])),
            ("c", EnvVal::Arr(vec![0.0; n * n])),
        ],
    }
}

fn stencil(n: usize, rng: &mut Rng) -> Gen {
    let (s1, s2) = (rng.range(3, 17), rng.range(11, 29));
    let u: Vec<f64> = (0..n * n).map(|i| ((i as u64 * s1) % s2) as f64).collect();
    let mut sum = 0.0;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            sum += u[i * n + j] * 4.0
                - u[(i - 1) * n + j]
                - u[(i + 1) * n + j]
                - u[i * n + j - 1]
                - u[i * n + j + 1];
        }
    }
    Gen {
        decls: format!("let n = {n};\n    let u = array(n * n); let v = array(n * n);"),
        inits: vec![format!(
            "forall i in 0..n * n {{ u[i] = (i * {s1}) % {s2}; }}"
        )],
        nest: "forall i in 1..n - 1 {
      forall j in 1..n - 1 {
        v[i * n + j] = u[i * n + j] * 4 - u[(i - 1) * n + j] - u[(i + 1) * n + j]
          - u[i * n + j - 1] - u[i * n + j + 1];
      }
    }"
        .to_string(),
        print: "print(sum(v));".to_string(),
        expect: sum,
        bounds: vec![(0, (n * n) as i64), (1, n as i64 - 1)],
        env: vec![
            ("n", EnvVal::Num(n as f64)),
            ("u", EnvVal::Arr(vec![0.0; n * n])),
            ("v", EnvVal::Arr(vec![0.0; n * n])),
        ],
    }
}

fn gather(n: usize, rng: &mut Rng) -> Gen {
    let (g1, g2, g3) = (rng.range(3, 97), rng.range(0, 50), rng.range(5, 13));
    let idx: Vec<f64> = (0..n)
        .map(|i| ((i as u64 * g1 + g2) % n as u64) as f64)
        .collect();
    let x: Vec<f64> = (0..n).map(|i| (i as u64 % g3) as f64).collect();
    let sum: f64 = (0..n).map(|i| x[idx[i] as usize] * 2.0 + 1.0).sum();
    Gen {
        decls: format!("let n = {n};\n    let idx = array(n); let x = array(n); let y = array(n);"),
        inits: vec![
            format!("forall i in 0..n {{ idx[i] = (i * {g1} + {g2}) % n; }}"),
            format!("forall i in 0..n {{ x[i] = i % {g3}; }}"),
        ],
        nest: "forall i in 0..n { y[i] = x[idx[i]] * 2 + 1; }".to_string(),
        print: "print(sum(y));".to_string(),
        expect: sum,
        bounds: vec![(0, n as i64); 3],
        env: vec![
            ("n", EnvVal::Num(n as f64)),
            ("idx", EnvVal::Arr(vec![0.0; n])),
            ("x", EnvVal::Arr(vec![0.0; n])),
            ("y", EnvVal::Arr(vec![0.0; n])),
        ],
    }
}

fn scan(n: usize, rng: &mut Rng) -> Gen {
    let c0 = rng.range(1, 99);
    // Closed form of a[i + 1] = a[i] + i from a[0] = c0.
    let last = c0 as f64 + (n as f64) * (n as f64 - 1.0) / 2.0;
    let mut a = vec![0.0; n + 1];
    a[0] = c0 as f64;
    Gen {
        decls: format!("let n = {n};\n    let a = array(n + 1);\n    a[0] = {c0};"),
        inits: Vec::new(),
        nest: "forall i in 0..n { a[i + 1] = a[i] + i; }".to_string(),
        print: "print(a[n]);".to_string(),
        expect: last,
        bounds: vec![(0, n as i64)],
        env: vec![("n", EnvVal::Num(n as f64)), ("a", EnvVal::Arr(a))],
    }
}

/// The suite for one run seed: hinted matmul, stencil, gather and scan,
/// and plain matmul, stencil and gather (the scan's plain form is a data
/// race under the naive fan-out). A hinted program puts `@hint(pipeline)`
/// on every nest, its init nests included, so that a hinted pass spends
/// its time on the pipelined path and not on naive init loops; a plain
/// program has no hint at all.
fn suite(cfg: &LitlxCfg, seed: u64) -> Vec<Prog> {
    let mut rng = Rng::new(seed, 0x11_7c);
    let mut out = Vec::new();
    type GenFn = fn(usize, &mut Rng) -> Gen;
    let gens: [(&'static str, GenFn, usize, Path); 4] = [
        ("matmul", matmul, cfg.matmul_n, Path::Pipelined),
        ("stencil", stencil, cfg.stencil_n, Path::Pipelined),
        ("gather", gather, cfg.gather_n, Path::Bailout),
        ("scan", scan, cfg.scan_n, Path::Wavefront),
    ];
    for (name, gen, n, path) in gens {
        let g = gen(n, &mut rng);
        for hinted in [true, false] {
            if !hinted && path == Path::Wavefront {
                continue;
            }
            let hint = if hinted { "@hint(pipeline)\n    " } else { "" };
            let nests: Vec<String> = g
                .inits
                .iter()
                .chain([&g.nest])
                .map(|nest| format!("    {hint}{nest}\n"))
                .collect();
            out.push(Prog {
                name,
                hinted,
                src: format!(
                    "fn main() {{\n    {}\n{}    {}\n}}\n",
                    g.decls,
                    nests.concat(),
                    g.print
                ),
                expect: fmt_num(g.expect),
                path,
                inits: g.inits.len() as u64,
                bounds: g.bounds.clone(),
                env: g.env.clone(),
            });
        }
    }
    out
}

/// The interpreter and the inputs of the section, built at set-up.
pub struct LitlxRig {
    interp: Interp,
    /// Pool the traced run calls `run_partitioned_body` on, built on first
    /// use so that an untraced run and the timed set-up never build it.
    stage_htvm: OnceLock<Htvm>,
    progs: Vec<Prog>,
}

impl LitlxRig {
    pub fn build(cfg: &LitlxCfg, seed: u64) -> Self {
        Self {
            interp: Interp::with_topology(Topology::default()),
            stage_htvm: OnceLock::new(),
            progs: suite(cfg, seed),
        }
    }
}

/// Check one program run's output and the path its main nest took.
fn check_run(p: &Prog, out: &RunOutput) -> Result<(), String> {
    if out.printed != [p.expect.clone()] {
        return Err(format!(
            "printed {:?}, expected [{}]",
            out.printed, p.expect
        ));
    }
    let i = p.inits;
    let (foralls, bails, waves, compiled) = match (p.hinted, p.path) {
        (false, _) => (0, 0, 0, 0),
        (true, Path::Pipelined) => (i + 1, 0, 0, i + 1),
        (true, Path::Bailout) => (i, 1, 0, i),
        (true, Path::Wavefront) => (i + 1, 0, 1, i + 1),
    };
    let got = (
        out.ssp_foralls,
        out.ssp_bailouts,
        out.ssp_wavefronts,
        out.ssp_compiled,
    );
    if got != (foralls, bails, waves, compiled) {
        return Err(format!(
            "ssp (foralls, bailouts, wavefronts, compiled) = {got:?}, expected {:?}",
            (foralls, bails, waves, compiled)
        ));
    }
    Ok(())
}

/// Per-pass counters of the traced run.
#[derive(Default, Clone, Copy)]
struct PassCounts {
    sgt_spawns: u64,
    naive_loops: u64,
    pipelined_loops: u64,
    bailouts: u64,
    compiled: u64,
    wavefronts: u64,
}

/// Stage timings of one pass over the hinted main nests.
#[derive(Default, Clone, Copy)]
struct StageTimes {
    lower_us: f64,
    plan_us: f64,
    compile_us: f64,
    exec_ms: f64,
    groups: u64,
    runs: u64,
}

/// The top-level nests of a parsed hinted program, in program order.
fn hinted_nests(prog: &Program) -> Vec<(&str, &[Stmt])> {
    let Some(main) = prog.get_fn("main") else {
        return Vec::new();
    };
    main.body
        .iter()
        .filter_map(|s| match s {
            Stmt::Forall {
                var, body, hints, ..
            } if !hints.is_empty() => Some((var.as_str(), body.as_slice())),
            _ => None,
        })
        .collect()
}

/// Call each stage of the pipelined path on every nest of one hinted
/// program in turn, as the interpreter's SSP executor does, and check the
/// program's result.
fn run_stages(
    pool: &Arc<Pool>,
    p: &Prog,
    ast: &Program,
    id: u64,
    trace: &mut Trace,
    st: &mut StageTimes,
) -> Result<(), String> {
    let nests = hinted_nests(ast);
    if nests.len() != p.bounds.len() {
        return Err(format!(
            "{} hinted nests, expected {}",
            nests.len(),
            p.bounds.len()
        ));
    }
    let env: Vec<(&str, Value)> = p
        .env
        .iter()
        .map(|(k, v)| {
            let v = match v {
                EnvVal::Num(x) => Value::Num(*x),
                EnvVal::Arr(a) => Value::Arr(SharedRegion::from_f64(a)),
            };
            (*k, v)
        })
        .collect();
    let resolve = |name: &str| env.iter().find(|(k, _)| *k == name).map(|(_, v)| v.clone());
    for (n, ((var, body), &(from, to))) in nests.iter().zip(&p.bounds).enumerate() {
        let main = n + 1 == nests.len();
        let t = Instant::now();
        let lowered = lower_forall(var, from, to, body, &resolve);
        trace.span(id, "litlx.lower", "litlx.stages", t, Instant::now());
        st.lower_us += t.elapsed().as_secs_f64() * 1e6;
        let lowered = match (lowered, main && p.path == Path::Bailout) {
            (Err(_), true) => return Ok(()),
            (Ok(_), true) => return Err("non-affine nest lowered".to_string()),
            (Err(e), false) => return Err(format!("lowering bailed: {e}")),
            (Ok(l), false) => l,
        };
        let t = Instant::now();
        let plans = schedule_all_levels(&lowered.nest, &SspConfig::default());
        let plan = plan_native(
            &lowered.nest.trip_counts,
            &plans,
            &lowered.parallel_levels,
            pool.workers() as u64,
        )
        .ok_or("no level could be planned")?;
        trace.span(id, "ssp.plan", "litlx.stages", t, Instant::now());
        st.plan_us += t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let compiled = Arc::new(compile(&lowered.kernel, &lowered.nest.trip_counts));
        trace.span(id, "litlx.compile", "litlx.stages", t, Instant::now());
        st.compile_us += t.elapsed().as_secs_f64() * 1e6;
        let run: Arc<RunBody> = Arc::new(move |prefix, t0, t1| {
            compiled
                .execute_run(prefix, t0, t1)
                .map_err(|f| f.to_string())
        });
        let t = Instant::now();
        let report = run_partitioned_body(
            pool,
            &lowered.nest.trip_counts,
            plan.level_plan.level,
            0,
            &plan.partition,
            NestBody::Run(run),
        )?;
        trace.span(id, "ssp.exec", "litlx.stages", t, Instant::now());
        st.exec_ms += t.elapsed().as_secs_f64() * 1e3;
        st.groups += report.groups * report.waves;
        st.runs += report.runs;
        let wavefront = main && p.path == Path::Wavefront;
        if report.wavefront != wavefront {
            return Err(format!(
                "stage run of nest {n} wavefront={}, expected {wavefront}",
                report.wavefront
            ));
        }
    }
    // The program's result, read back from the regions its nests wrote.
    let region = |name: &str| match env.iter().find(|(k, _)| *k == name) {
        Some((_, Value::Arr(r))) => r.clone(),
        _ => unreachable!("every generated program binds its arrays"),
    };
    let got = match p.name {
        "matmul" => region("c").to_f64_vec().iter().sum(),
        "stencil" => region("v").to_f64_vec().iter().sum(),
        _ => {
            let a = region("a");
            a.read_f64(a.len() - 1)
        }
    };
    if fmt_num(got) != p.expect {
        return Err(format!("stage run computed {got}, expected {}", p.expect));
    }
    Ok(())
}

/// The LITL-X section's state across the rounds of a run.
pub struct LitlxSection {
    hinted_pass_ms: Vec<f64>,
    plain_pass_ms: Vec<f64>,
    /// Interpreter time (parse excluded) of each hinted pass.
    hinted_run_ms: Vec<f64>,
    parse_us: Vec<f64>,
    /// Time of each program run, per program of the suite.
    prog_ms: Vec<Vec<f64>>,
    hinted_counts: Vec<PassCounts>,
    plain_counts: Vec<PassCounts>,
    stage_passes: Vec<StageTimes>,
    /// Remote and total steals of the interpreter's pool in hinted passes.
    remote_steals: u64,
    steals: u64,
    next_id: u64,
    pub ledger: Ledger,
}

impl LitlxSection {
    pub fn new(rig: &LitlxRig) -> Self {
        Self {
            hinted_pass_ms: Vec::new(),
            plain_pass_ms: Vec::new(),
            hinted_run_ms: Vec::new(),
            parse_us: Vec::new(),
            prog_ms: vec![Vec::new(); rig.progs.len()],
            hinted_counts: Vec::new(),
            plain_counts: Vec::new(),
            stage_passes: Vec::new(),
            remote_steals: 0,
            steals: 0,
            next_id: 3 << 32,
            ledger: Ledger::default(),
        }
    }

    /// Passes over the hinted and the plain suite for `budget`, each pass
    /// going to whichever suite has had less time so far.
    pub fn round(&mut self, rig: &LitlxRig, budget: Duration, mut trace: Option<&mut Trace>) {
        let start = Instant::now();
        loop {
            let spent = |v: &[f64]| v.iter().sum::<f64>();
            let hinted = spent(&self.hinted_pass_ms) <= spent(&self.plain_pass_ms);
            self.pass(rig, hinted, trace.as_deref_mut());
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// One pass over the hinted or the plain suite.
    fn pass(&mut self, rig: &LitlxRig, hinted: bool, mut trace: Option<&mut Trace>) {
        let kb = rig.interp.knowledge();
        let pool_before = rig.interp.pool_stats();
        let (mut pass_ms, mut run_ms) = (0.0, 0.0);
        let mut counts = PassCounts::default();
        let mut asts = Vec::new();
        for (pi, p) in rig
            .progs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.hinted == hinted)
        {
            let id = self.next_id;
            self.next_id += 1;
            // Every program starts from an empty knowledge base, as in a
            // fresh interpreter: a pipeline hint recorded for a nest would
            // otherwise also force the path of the plain variant's
            // identical nest.
            *kb.lock() = KnowledgeBase::new();
            let t0 = Instant::now();
            let ast = parse(&p.src);
            let t1 = Instant::now();
            let out = ast
                .as_ref()
                .map_err(|e| format!("{e:?}"))
                .and_then(|ast| rig.interp.run(ast));
            let t2 = Instant::now();
            let ms = (t2 - t0).as_secs_f64() * 1e3;
            pass_ms += ms;
            run_ms += (t2 - t1).as_secs_f64() * 1e3;
            self.prog_ms[pi].push(ms);
            self.parse_us.push((t1 - t0).as_secs_f64() * 1e6);
            if let Some(tr) = trace.as_deref_mut() {
                tr.span(id, "litlx.parse", "litlx.program", t0, t1);
                tr.span(id, "litlx.run", "litlx.program", t1, t2);
                tr.span(id, "litlx.program", "", t0, t2);
                // Loops the adapt layer recorded per path for this program.
                let text = kb.lock().to_text().unwrap_or_default();
                let recorded = |policy: &str| {
                    text.lines()
                        .filter(|l| {
                            l.starts_with("outcome\t") && l.split('\t').nth(2) == Some(policy)
                        })
                        .count() as u64
                };
                counts.naive_loops += recorded(NAIVE_POLICY);
                counts.pipelined_loops += recorded(PIPELINED_POLICY);
            }
            self.ledger.attempted += 1;
            match out.and_then(|o| check_run(p, &o).map(|()| o)) {
                Ok(o) => {
                    counts.sgt_spawns += o.sgt_spawns;
                    counts.bailouts += o.ssp_bailouts;
                    counts.compiled += o.ssp_compiled;
                    counts.wavefronts += o.ssp_wavefronts;
                }
                Err(e) => {
                    let variant = if p.hinted { "hinted" } else { "plain" };
                    self.ledger.fail(format!("litlx {}.{variant}: {e}", p.name));
                }
            }
            if let Ok(ast) = ast {
                asts.push((pi, id, ast));
            }
        }
        if !hinted {
            self.plain_pass_ms.push(pass_ms);
            self.plain_counts.push(counts);
            return;
        }
        self.hinted_pass_ms.push(pass_ms);
        self.hinted_counts.push(counts);
        self.hinted_run_ms.push(run_ms);
        let d = rig.interp.pool_stats().since(&pool_before);
        self.remote_steals += d.total_remote_steals();
        self.steals += d.total_stolen();
        if let Some(tr) = trace {
            let pool = rig
                .stage_htvm
                .get_or_init(|| Htvm::new(HtvmConfig::default()))
                .pool();
            let mut st = StageTimes::default();
            for (pi, id, ast) in &asts {
                let p = &rig.progs[*pi];
                let t = Instant::now();
                let res = run_stages(&pool, p, ast, *id, tr, &mut st);
                tr.span(*id, "litlx.stages", "", t, Instant::now());
                self.ledger.op(res.is_ok(), || {
                    format!("litlx {} stages: {}", p.name, res.unwrap_err())
                });
            }
            self.stage_passes.push(st);
        }
    }

    /// The section's metrics: (end-to-end, per-layer; empty unless traced).
    pub fn finish(self, rig: &LitlxRig, traced: bool) -> (Metrics, Metrics, Ledger) {
        let mut e2e = Metrics::default();
        e2e.put("litlx.hinted_ms", median(&self.hinted_pass_ms), "ms");
        e2e.put("litlx.plain_ms", median(&self.plain_pass_ms), "ms");
        let mut layers = Metrics::default();
        if traced {
            layers.put("litlx.parse_us", median(&self.parse_us), "us");
            for (pi, p) in rig.progs.iter().enumerate() {
                let variant = if p.hinted { "hinted" } else { "plain" };
                layers.put(
                    format!("litlx.{}.{variant}_ms", p.name),
                    median(&self.prog_ms[pi]),
                    "ms",
                );
            }
            let med = |v: &[PassCounts], f: fn(&PassCounts) -> u64| {
                median(&v.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
            };
            layers.put(
                "litlx.sgt_spawns",
                med(&self.plain_counts, |c| c.sgt_spawns),
                "count/pass",
            );
            layers.put(
                "adapt.naive_loops",
                med(&self.plain_counts, |c| c.naive_loops),
                "count/pass",
            );
            layers.put(
                "adapt.pipelined_loops",
                med(&self.hinted_counts, |c| c.pipelined_loops),
                "count/pass",
            );
            layers.put(
                "litlx.ssp_bailouts",
                med(&self.hinted_counts, |c| c.bailouts),
                "count/pass",
            );
            layers.put(
                "litlx.ssp_compiled",
                med(&self.hinted_counts, |c| c.compiled),
                "count/pass",
            );
            layers.put(
                "litlx.ssp_wavefronts",
                med(&self.hinted_counts, |c| c.wavefronts),
                "count/pass",
            );
            let stage = |f: fn(&StageTimes) -> f64| {
                median(&self.stage_passes.iter().map(f).collect::<Vec<_>>())
            };
            let (lower, plan, comp, exec) = (
                stage(|s| s.lower_us),
                stage(|s| s.plan_us),
                stage(|s| s.compile_us),
                stage(|s| s.exec_ms),
            );
            layers.put("litlx.lower_us", lower, "us");
            layers.put("ssp.plan_us", plan, "us");
            layers.put("litlx.compile_us", comp, "us");
            layers.put("ssp.exec_ms", exec, "ms");
            layers.put("ssp.groups", stage(|s| s.groups as f64), "count/pass");
            layers.put("ssp.runs", stage(|s| s.runs as f64), "count/pass");
            // What the interpreter spends outside the four stages.
            let stages_ms = (lower + plan + comp) / 1e3 + exec;
            layers.put(
                "litlx.glue_ms",
                median(&self.hinted_run_ms) - stages_ms,
                "ms",
            );
            layers.put(
                "pool.remote_steal_ratio",
                self.remote_steals as f64 / self.steals.max(1) as f64,
                "ratio",
            );
        }
        (e2e, layers, self.ledger)
    }
}
