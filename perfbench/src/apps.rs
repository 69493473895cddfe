//! The applications section: the paper's two applications time-stepped on
//! the default topology — fine-grain molecular dynamics (one SGT per
//! cell, NVE) through `run_md_parallel_topo`, and the neocortex network
//! (the hierarchical mapping) through `run_parallel_topo`.

use std::time::{Duration, Instant};

use htvm_apps::md::cell_list::CellList;
use htvm_apps::md::forces::{compute_forces, compute_forces_bruteforce, ForceParams};
use htvm_apps::md::integrate::{run_md, Thermostat};
use htvm_apps::md::parallel::{run_md_parallel_topo, MdGrain, MdRunReport};
use htvm_apps::md::system::{MdSystem, SystemSpec};
use htvm_apps::neuro::htvm_map::{run_parallel_topo, Mapping};
use htvm_apps::neuro::network::{Network, NetworkSpec};
use htvm_apps::neuro::sim::NetworkSim;
use htvm_core::Topology;

use crate::trace::Trace;
use crate::util::{median, Ledger, Metrics, Rng};

/// MD time step; small enough that NVE energy is conserved.
const MD_DT: f64 = 0.001;
/// Allowed relative drift of the MD total energy over one run.
pub const MD_DRIFT_BOUND: f64 = 0.01;
/// Allowed relative difference between the run's forces and potential
/// and the all-pairs reference.
pub const MD_FORCE_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone)]
pub struct AppsCfg {
    pub md: SystemSpec,
    pub md_steps: usize,
    pub neuro: NetworkSpec,
    pub neuro_steps: u64,
}

/// Seeded inputs per application. Calls cycle through them, so that the
/// run's rate is an average over inputs and one seed's unusually dense
/// system does not set it.
const INPUTS: usize = 8;

/// The seeded systems the section runs, built at set-up.
pub struct AppsRig {
    md: Vec<MdSystem>,
    net: Vec<Network>,
    params: ForceParams,
}

impl AppsRig {
    pub fn build(cfg: &AppsCfg, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xa995);
        let md = (0..INPUTS)
            .map(|_| {
                MdSystem::build(&SystemSpec {
                    seed: rng.next(),
                    ..cfg.md.clone()
                })
            })
            .collect();
        let net = (0..INPUTS)
            .map(|_| {
                Network::build(NetworkSpec {
                    seed: rng.next(),
                    ..cfg.neuro.clone()
                })
            })
            .collect();
        Self {
            md,
            net,
            params: ForceParams::default(),
        }
    }
}

/// Total energy of a system whose forces are not yet primed.
fn total_energy(sys: &MdSystem, params: &ForceParams) -> f64 {
    let mut s = sys.clone();
    let cl = CellList::build(&s, params.cutoff);
    compute_forces(&mut s, &cl, params) + s.kinetic_energy()
}

/// Check a parallel MD run against the all-pairs force computation and
/// NVE energy conservation.
fn check_md(rep: &MdRunReport, e0: f64, params: &ForceParams) -> Result<(), String> {
    let mut reference = rep.system.clone();
    let pot = compute_forces_bruteforce(&mut reference, params);
    let scale = pot.abs().max(1.0);
    if (pot - rep.potential).abs() > MD_FORCE_TOLERANCE * scale {
        return Err(format!("potential {} vs all-pairs {pot}", rep.potential));
    }
    let fmax = reference
        .force
        .iter()
        .flatten()
        .fold(1.0f64, |m, f| m.max(f.abs()));
    for (i, (f, r)) in rep.system.force.iter().zip(&reference.force).enumerate() {
        for k in 0..3 {
            if (f[k] - r[k]).abs() > MD_FORCE_TOLERANCE * fmax {
                return Err(format!("force[{i}][{k}] {} vs all-pairs {}", f[k], r[k]));
            }
        }
    }
    let e1 = rep.potential + rep.system.kinetic_energy();
    let drift = (e1 - e0).abs() / e0.abs().max(1e-12);
    if drift > MD_DRIFT_BOUND {
        return Err(format!(
            "NVE energy drift {drift:.3e} over {} steps",
            rep.steps
        ));
    }
    Ok(())
}

#[derive(Default)]
struct AppLayer {
    /// Calls so far; call `c` runs input `c % INPUTS`.
    calls: usize,
    /// Seconds per step of every call, per input.
    step_secs: [Vec<f64>; INPUTS],
    /// Seconds of the application's runs so far.
    spent: f64,
    seq_step_us: Vec<f64>,
    sgts_per_step: Vec<f64>,
    steals_per_step: Vec<f64>,
    imbalance: Vec<f64>,
    parks: u64,
    steps: u64,
}

impl AppLayer {
    /// Steps per second over the inputs: each input's median time per
    /// step, so that a slow spell of the host does not count, averaged
    /// over the inputs, so that each weighs the same.
    fn steps_per_s(&self) -> f64 {
        let ran: Vec<f64> = self
            .step_secs
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        ran.len() as f64 / ran.iter().sum::<f64>()
    }
}

/// The applications section's state across the rounds of a run.
pub struct AppsSection {
    /// Total energy of each MD input, and each network's spike count over
    /// one call, both computed sequentially from the same inputs.
    md_e0: Vec<f64>,
    expect_spikes: Vec<u64>,
    md: AppLayer,
    neuro: AppLayer,
    next_id: u64,
    pub ledger: Ledger,
}

impl AppsSection {
    pub fn new(rig: &AppsRig, cfg: &AppsCfg) -> Self {
        Self {
            md_e0: rig
                .md
                .iter()
                .map(|m| total_energy(m, &rig.params))
                .collect(),
            expect_spikes: rig
                .net
                .iter()
                .map(|n| NetworkSim::new(n.clone()).run(cfg.neuro_steps))
                .collect(),
            md: AppLayer::default(),
            neuro: AppLayer::default(),
            next_id: 4 << 32,
            ledger: Ledger::default(),
        }
    }

    /// MD runs and network runs for `budget`, each run going to whichever
    /// application has had less time so far.
    pub fn round(
        &mut self,
        rig: &AppsRig,
        cfg: &AppsCfg,
        budget: Duration,
        mut trace: Option<&mut Trace>,
    ) {
        let start = Instant::now();
        loop {
            self.next_id += 1;
            if self.md.spent <= self.neuro.spent {
                self.md_run(rig, cfg, trace.as_deref_mut());
            } else {
                self.neuro_run(rig, cfg, trace.as_deref_mut());
            }
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    fn md_run(&mut self, rig: &AppsRig, cfg: &AppsCfg, trace: Option<&mut Trace>) {
        let k = self.md.calls % INPUTS;
        self.md.calls += 1;
        let t = Instant::now();
        let rep = run_md_parallel_topo(
            rig.md[k].clone(),
            &rig.params,
            MD_DT,
            cfg.md_steps,
            Topology::default(),
            MdGrain::PerCell,
            Thermostat::None,
        );
        let end = Instant::now();
        let secs = rep.elapsed.as_secs_f64();
        self.md.spent += secs;
        self.md.step_secs[k].push(secs / cfg.md_steps as f64);
        let res = check_md(&rep, self.md_e0[k], &rig.params);
        self.ledger
            .op(res.is_ok(), || format!("md: {}", res.unwrap_err()));
        if let Some(tr) = trace {
            let id = self.next_id;
            tr.span(id, "md.run", "", t, end);
            let steps = cfg.md_steps as f64;
            let l = &mut self.md;
            l.sgts_per_step.push(rep.sgt_count as f64 / steps);
            l.steals_per_step
                .push(rep.pool.total_stolen() as f64 / steps);
            l.imbalance.push(rep.pool.imbalance());
            l.parks += rep.pool.parks;
            l.steps += cfg.md_steps as u64;
            let mut seq = rig.md[k].clone();
            let t = Instant::now();
            run_md(&mut seq, &rig.params, MD_DT, cfg.md_steps, Thermostat::None);
            tr.span(id, "md.seq", "", t, Instant::now());
            l.seq_step_us.push(t.elapsed().as_secs_f64() * 1e6 / steps);
        }
    }

    fn neuro_run(&mut self, rig: &AppsRig, cfg: &AppsCfg, trace: Option<&mut Trace>) {
        let k = self.neuro.calls % INPUTS;
        self.neuro.calls += 1;
        let t = Instant::now();
        let rep = run_parallel_topo(
            rig.net[k].clone(),
            cfg.neuro_steps,
            Topology::default(),
            Mapping::Hierarchical,
        );
        let end = Instant::now();
        let secs = rep.elapsed.as_secs_f64();
        self.neuro.spent += secs;
        self.neuro.step_secs[k].push(secs / cfg.neuro_steps as f64);
        let expect = self.expect_spikes[k];
        self.ledger.op(rep.total_spikes == expect, || {
            format!(
                "neuro: {} spikes, sequential run {expect}",
                rep.total_spikes
            )
        });
        if let Some(tr) = trace {
            let id = self.next_id;
            tr.span(id, "neuro.run", "", t, end);
            let steps = cfg.neuro_steps as f64;
            let l = &mut self.neuro;
            l.sgts_per_step.push(rep.sgt_count as f64 / steps);
            l.steals_per_step.push(rep.steals() as f64 / steps);
            l.imbalance.push(rep.imbalance());
            l.parks += rep.pool.parks;
            l.steps += cfg.neuro_steps;
            let mut seq = NetworkSim::new(rig.net[k].clone());
            let t = Instant::now();
            seq.run(cfg.neuro_steps);
            tr.span(id, "neuro.seq", "", t, Instant::now());
            l.seq_step_us.push(t.elapsed().as_secs_f64() * 1e6 / steps);
        }
    }

    /// The section's metrics: (end-to-end, per-layer; empty unless traced).
    pub fn finish(self, traced: bool) -> (Metrics, Metrics, Ledger) {
        let (md, neuro) = (&self.md, &self.neuro);
        let mut e2e = Metrics::default();
        e2e.put("md.steps_per_s", md.steps_per_s(), "steps/s");
        e2e.put("neuro.steps_per_s", neuro.steps_per_s(), "steps/s");
        let mut layers = Metrics::default();
        if traced {
            layers.put("md.seq_step_ms", median(&md.seq_step_us) / 1e3, "ms");
            layers.put("md.sgts_per_step", median(&md.sgts_per_step), "count/step");
            layers.put(
                "md.steals_per_step",
                median(&md.steals_per_step),
                "count/step",
            );
            layers.put("md.imbalance", median(&md.imbalance), "cv");
            layers.put("neuro.seq_step_us", median(&neuro.seq_step_us), "us");
            layers.put(
                "neuro.sgts_per_step",
                median(&neuro.sgts_per_step),
                "count/step",
            );
            layers.put(
                "neuro.steals_per_step",
                median(&neuro.steals_per_step),
                "count/step",
            );
            layers.put("neuro.imbalance", median(&neuro.imbalance), "cv");
            let parks = (md.parks + neuro.parks) as f64;
            layers.put(
                "pool.parks_per_step",
                parks / (md.steps + neuro.steps).max(1) as f64,
                "count/step",
            );
        }
        (e2e, layers, self.ledger)
    }
}
