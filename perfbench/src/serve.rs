//! The serving section: three weighted tenants of one `htvm_serve` server
//! under an open loop at a light and a busy rate, then drained from a
//! backlog.
//!
//! Load comes from two client threads: the calling thread generates
//! arrivals and submits, a waiter thread waits on each handle in turn.
//! A request is timed from the moment it was due to be sent until the
//! waiter observes its outcome.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use htvm_core::{Htvm, HtvmConfig, PoolStats};
use htvm_serve::{
    NativeParcel, Outcome, Server, ServerConfig, TenantConfig, TenantHandle, TenantStats,
};

use crate::trace::Trace;
use crate::util::{median, pct_of, us, Ledger, Metrics, Rng};

/// Tenant weights; every tenant is offered the same load.
pub const WEIGHTS: [u64; 3] = [1, 2, 4];
/// Every `DEADLINE_EVERY`-th request carries a deadline that a working
/// server never reaches.
const DEADLINE_EVERY: usize = 16;
const FAR_DEADLINE: Duration = Duration::from_secs(60);
/// Allowed relative error of the weight-2 and weight-4 completion shares
/// when the weight-4 backlog empties (the weights say 2 and 4). Requests
/// dispatched while the backlog was still being admitted, up to the
/// server's in-flight budget, complete inside the window in equal shares
/// and pull both figures down: on the 2-CPU host they read about 1.9 and
/// 3.4.
pub const SHARE_TOLERANCE: f64 = 0.35;
/// Admission-queue capacity of each tenant; the server's shed watermark
/// is the three together. A refusal or a shed counts as a failed
/// operation. With room for one drain backlog (320 per tenant) a stall of
/// about 100 ms in the busy phase fills the queues, and on the 2-vCPU
/// reference host one run of forty did. This capacity rides out a stall
/// of about a second at the busy rate; the stall still shows in the
/// latencies.
const QUEUE_CAPACITY: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    /// Iterations of the benchmark-owned xorshift loop each body runs.
    pub body_iters: u64,
    pub light_rps: f64,
    pub busy_rps: f64,
    /// Requests each tenant has queued when a drain round starts.
    pub drain_per_tenant: usize,
}

/// A server with its three tenants, built the way a user builds one.
pub struct ServeRig {
    _htvm: Htvm,
    server: Server,
    tenants: Vec<TenantHandle>,
}

impl ServeRig {
    pub fn build() -> Self {
        let htvm = Htvm::new(HtvmConfig::default());
        let server = Server::new(
            &htvm,
            ServerConfig {
                max_queued_total: WEIGHTS.len() * QUEUE_CAPACITY,
                ..ServerConfig::default()
            },
        );
        let tenants = WEIGHTS
            .iter()
            .map(|&weight| {
                server.register_tenant(TenantConfig {
                    weight,
                    queue_capacity: Some(QUEUE_CAPACITY),
                    ..TenantConfig::default()
                })
            })
            .collect();
        Self {
            _htvm: htvm,
            server,
            tenants,
        }
    }

    fn stats(&self) -> Vec<TenantStats> {
        self.tenants.iter().map(TenantHandle::stats).collect()
    }

    fn pool_stats(&self) -> PoolStats {
        self.server.pool().stats()
    }
}

impl Drop for ServeRig {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// The request body: a fixed amount of arithmetic the benchmark owns.
fn body_work(iters: u64, seed: u64) -> u64 {
    let mut h = seed | 1;
    for _ in 0..std::hint::black_box(iters) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
    }
    std::hint::black_box(h)
}

/// Benchmark-side record of one request: how often its body ran, and
/// (traced runs only) when the body started and ended.
#[derive(Default)]
struct Slot {
    runs: AtomicU32,
    body_start_ns: AtomicU64,
    body_end_ns: AtomicU64,
}

/// Client-side record of one open-loop request.
#[derive(Clone, Copy)]
struct Sent {
    tenant: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// One open-loop phase and everything measured in it, over all rounds.
#[derive(Default)]
struct Phase {
    name: &'static str,
    rate: f64,
    /// Span ids of the phase's requests start here.
    id_base: u64,
    latencies_us: Vec<f64>,
    /// p99 of each round's latencies.
    round_p99_us: Vec<f64>,
    gen_lag_us: Vec<f64>,
    hops: Hops,
    parks: u64,
    wakes: u64,
    steals: u64,
    /// Requests sent so far; numbers the spans of the next one.
    sent: u64,
}

/// Per-hop durations of the traced requests of one phase, in µs.
#[derive(Default)]
struct Hops {
    submit: Vec<f64>,
    queue: Vec<f64>,
    body: Vec<f64>,
    settle: Vec<f64>,
}

/// Yield until `t`. The generator never sleeps: waking from a timed
/// sleep on a 2-CPU virtual machine can take milliseconds, which would
/// show up as generator lag in every request's latency.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Delta of every tenant's ledger between two snapshots.
fn stats_delta(after: &[TenantStats], before: &[TenantStats]) -> Vec<TenantStats> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| TenantStats {
            submitted: a.submitted - b.submitted,
            rejected_full: a.rejected_full - b.rejected_full,
            completed: a.completed - b.completed,
            failed: a.failed - b.failed,
            cancelled: a.cancelled - b.cancelled,
            shed: a.shed - b.shed,
            closed_rejects: a.closed_rejects - b.closed_rejects,
            shutdown_rejects: a.shutdown_rejects - b.shutdown_rejects,
            retried: a.retried - b.retried,
        })
        .collect()
}

/// Check the tenants' ledger for one phase against the bodies that ran:
/// every submission settled, every completion is a body that ran, and
/// nothing was refused, shed, cancelled or failed.
fn check_ledger(delta: &[TenantStats], bodies: &[u64; 3], ledger: &mut Ledger, phase: &str) {
    for (k, d) in delta.iter().enumerate() {
        let bad = d.settled().abs_diff(d.submitted)
            + d.completed.abs_diff(bodies[k])
            + d.rejected_full
            + d.shed
            + d.cancelled
            + d.failed
            + d.closed_rejects
            + d.shutdown_rejects;
        if bad > 0 {
            ledger.fail_many(
                bad,
                format!(
                    "{phase}: tenant w{} ledger {d:?} with {} bodies run",
                    WEIGHTS[k], bodies[k]
                ),
            );
        }
    }
}

/// One round of an open-loop phase, at its rate for `dur`.
fn open_loop(
    rig: &ServeRig,
    cfg: &ServeCfg,
    out: &mut Phase,
    dur: Duration,
    rng: &mut Rng,
    mut trace: Option<&mut Trace>,
    ledger: &mut Ledger,
) {
    let traced = trace.is_some();
    let (phase, rate) = (out.name, out.rate);
    // Seeded Poisson arrivals, tenants in turn (equal offered load).
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= dur.as_secs_f64() {
            break;
        }
        offsets.push(t);
    }
    let n = offsets.len();
    let slots: Arc<Vec<Slot>> = Arc::new((0..n).map(|_| Slot::default()).collect());
    let epoch = Instant::now();
    let stats_before = rig.stats();
    let pool_before = rig.pool_stats();

    let (tx, rx) = mpsc::channel::<(usize, htvm_serve::ResponseHandle)>();
    let waiter = std::thread::spawn(move || {
        let mut seen: Vec<Option<(Instant, Outcome)>> = vec![None; n];
        for (i, h) in rx {
            let outcome = h.wait();
            seen[i] = Some((Instant::now(), outcome));
        }
        seen
    });

    let start = Instant::now() + Duration::from_millis(2);
    let mut sent: Vec<Option<Sent>> = vec![None; n];
    for (i, off) in offsets.iter().enumerate() {
        let due = start + Duration::from_secs_f64(*off);
        wait_until(due);
        let tenant = i % WEIGHTS.len();
        let slots_b = slots.clone();
        let iters = cfg.body_iters;
        let parcel = NativeParcel::new(move |_| {
            let slot = &slots_b[i];
            if traced {
                slot.body_start_ns
                    .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            body_work(iters, i as u64);
            slot.runs.fetch_add(1, Ordering::Relaxed);
            if traced {
                slot.body_end_ns
                    .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        let submit_start = Instant::now();
        let res = if i % DEADLINE_EVERY == DEADLINE_EVERY - 1 {
            rig.tenants[tenant].submit_with_deadline(parcel, submit_start + FAR_DEADLINE)
        } else {
            rig.tenants[tenant].submit(parcel)
        };
        let submit_end = Instant::now();
        sent[i] = Some(Sent {
            tenant,
            due,
            submit_start,
            submit_end,
        });
        match res {
            Ok(h) => tx.send((i, h)).expect("waiter thread is alive"),
            Err(e) => ledger.fail(format!("{phase}: request {i} refused at submit: {e}")),
        }
    }
    drop(tx);
    let seen = waiter.join().expect("waiter thread panicked");
    let pool = rig.pool_stats().since(&pool_before);
    out.parks += pool.parks;
    out.wakes += pool.total_wakes();
    out.steals += pool.total_stolen();
    let first_timed = out.latencies_us.len();
    let mut bodies = [0u64; 3];
    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    // The first requests of a phase warm the path up; they are checked
    // but not timed.
    let warm = n / WARMUP_DIVISOR;
    for i in 0..n {
        let s = sent[i].expect("every arrival was sent");
        let runs = slots[i].runs.load(Ordering::Relaxed);
        bodies[s.tenant] += runs as u64;
        ledger.attempted += 1;
        let Some((observed, outcome)) = &seen[i] else {
            continue; // refused; already counted failed
        };
        if *outcome != Outcome::Completed || runs != 1 {
            ledger.fail(format!(
                "{phase}: request {i} outcome {outcome:?}, body ran {runs} times"
            ));
            continue;
        }
        if traced {
            let b0 = at(slots[i].body_start_ns.load(Ordering::Relaxed));
            let b1 = at(slots[i].body_end_ns.load(Ordering::Relaxed));
            // The hops are cut at shared timestamps, so they tile the
            // request's latency by construction. A body may start before
            // `submit` returns; the submit hop then ends where the body
            // starts and the queue hop is empty. What can fail is causal
            // order: a handle that resolves before its body has ended.
            let sub_end = s.submit_end.min(b0);
            let causal = s.due <= s.submit_start
                && s.submit_start <= b0
                && b0 <= b1
                && b1 <= *observed
                && s.submit_end <= *observed;
            if !causal {
                ledger.fail(format!(
                    "{phase}: request {i} hop boundaries out of causal order"
                ));
                continue;
            }
            if let Some(tr) = trace.as_deref_mut() {
                let id = out.id_base + out.sent + i as u64;
                tr.span(id, "serve.request", "", s.due, *observed);
                tr.span(id, "bench.gen_lag", "serve.request", s.due, s.submit_start);
                tr.span(id, "serve.submit", "serve.request", s.submit_start, sub_end);
                tr.span(id, "serve.queue", "serve.request", sub_end, b0);
                tr.span(id, "serve.body", "serve.request", b0, b1);
                tr.span(id, "serve.settle", "serve.request", b1, *observed);
            }
            if i >= warm {
                out.hops.submit.push(us(s.submit_start, sub_end));
                out.hops.queue.push(us(sub_end, b0));
                out.hops.body.push(us(b0, b1));
                out.hops.settle.push(us(b1, *observed));
            }
        }
        if i >= warm {
            out.latencies_us.push(us(s.due, *observed));
            out.gen_lag_us.push(us(s.due, s.submit_start));
        }
    }
    check_ledger(
        &stats_delta(&rig.stats(), &stats_before),
        &bodies,
        ledger,
        phase,
    );
    out.sent += n as u64;
    let round = &out.latencies_us[first_timed..];
    if !round.is_empty() {
        out.round_p99_us.push(pct_of(round, 0.99));
    }
}

/// One drain round: admit `per_tenant` requests per tenant, interleaved,
/// and wait for all of them. Returns (requests/s, w2 share, w4 share),
/// the shares being the completions of the weight-2 and weight-4 tenants
/// over those of the weight-1 tenant between the moment the backlog is
/// admitted and the moment the weight-4 backlog empties.
fn drain_round(rig: &ServeRig, cfg: &ServeCfg, round: u64, ledger: &mut Ledger) -> (f64, f64, f64) {
    let per = cfg.drain_per_tenant;
    let total = per * WEIGHTS.len();
    let slots: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let done: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
    // Completions of the weight-1 and weight-2 tenants when the last
    // weight-4 body finishes.
    let snap: Arc<[AtomicU64; 2]> = Arc::new(Default::default());
    let stats_before = rig.stats();
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(total);
    for i in 0..total {
        let tenant = i % WEIGHTS.len();
        let (slots, done, snap) = (slots.clone(), done.clone(), snap.clone());
        let iters = cfg.body_iters;
        let seed = round.wrapping_mul(1 << 20) + i as u64;
        let parcel = NativeParcel::new(move |_| {
            body_work(iters, seed);
            slots[i].fetch_add(1, Ordering::Relaxed);
            let c = done[tenant].fetch_add(1, Ordering::SeqCst) + 1;
            if tenant == 2 && c == per as u64 {
                snap[0].store(done[0].load(Ordering::SeqCst), Ordering::SeqCst);
                snap[1].store(done[1].load(Ordering::SeqCst), Ordering::SeqCst);
            }
        });
        let res = if i % DEADLINE_EVERY == DEADLINE_EVERY - 1 {
            rig.tenants[tenant].submit_with_deadline(parcel, Instant::now() + FAR_DEADLINE)
        } else {
            rig.tenants[tenant].submit(parcel)
        };
        match res {
            Ok(h) => handles.push((i, h)),
            Err(e) => {
                ledger.attempted += 1;
                ledger.fail(format!("drain: request {i} refused at submit: {e}"));
            }
        }
    }
    // Completions when the whole backlog has been admitted: the shares
    // count from here, while every tenant is backlogged.
    let admitted: Vec<u64> = done.iter().map(|d| d.load(Ordering::SeqCst)).collect();
    for (i, h) in &handles {
        let outcome = h.wait();
        let runs = slots[*i].load(Ordering::Relaxed);
        ledger.op(outcome == Outcome::Completed && runs == 1, || {
            format!("drain: request {i} outcome {outcome:?}, body ran {runs} times")
        });
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut bodies = [0u64; 3];
    for (i, s) in slots.iter().enumerate() {
        bodies[i % WEIGHTS.len()] += s.load(Ordering::Relaxed) as u64;
    }
    check_ledger(
        &stats_delta(&rig.stats(), &stats_before),
        &bodies,
        ledger,
        "drain",
    );
    let since = |now: u64, k: usize| now.saturating_sub(admitted[k]) as f64;
    let w1 = since(snap[0].load(Ordering::SeqCst), 0).max(1.0);
    let w2 = since(snap[1].load(Ordering::SeqCst), 1);
    (total as f64 / secs, w2 / w1, since(per as u64, 2) / w1)
}

/// One request in `WARMUP_DIVISOR` at the start of each open-loop phase
/// is not timed.
const WARMUP_DIVISOR: usize = 20;

/// The serving section's state across the rounds of a run.
pub struct ServeSection {
    rng: Rng,
    light: Phase,
    busy: Phase,
    drain_rps: Vec<f64>,
    share_w2: Vec<f64>,
    share_w4: Vec<f64>,
    pub ledger: Ledger,
}

impl ServeSection {
    pub fn new(cfg: &ServeCfg, seed: u64) -> Self {
        let phase = |name, rate, id_base| Phase {
            name,
            rate,
            id_base,
            ..Phase::default()
        };
        Self {
            rng: Rng::new(seed, 0x5e7e),
            light: phase("light", cfg.light_rps, 1 << 32),
            busy: phase("busy", cfg.busy_rps, 2 << 32),
            drain_rps: Vec::new(),
            share_w2: Vec::new(),
            share_w4: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    /// One round: the light phase, the busy phase, then drain rounds, in
    /// `budget` of wall time.
    pub fn round(
        &mut self,
        rig: &ServeRig,
        cfg: &ServeCfg,
        budget: Duration,
        mut trace: Option<&mut Trace>,
    ) {
        let (light_dur, busy_dur, drain_dur) = (
            budget.mul_f64(0.4),
            budget.mul_f64(0.35),
            budget.mul_f64(0.25),
        );
        let (rng, ledger) = (&mut self.rng, &mut self.ledger);
        open_loop(
            rig,
            cfg,
            &mut self.light,
            light_dur,
            rng,
            trace.as_deref_mut(),
            ledger,
        );
        open_loop(rig, cfg, &mut self.busy, busy_dur, rng, trace, ledger);
        let start = Instant::now();
        loop {
            let (r, a, b) = drain_round(rig, cfg, self.drain_rps.len() as u64, &mut self.ledger);
            self.drain_rps.push(r);
            self.share_w2.push(a);
            self.share_w4.push(b);
            if start.elapsed() >= drain_dur {
                break;
            }
        }
    }

    /// The section's metrics: (end-to-end, per-layer; empty unless traced).
    pub fn finish(mut self, traced: bool) -> (Metrics, Metrics, Ledger) {
        // Fairness is judged on the median drain round: one check per run.
        let (share_w2, share_w4) = (median(&self.share_w2), median(&self.share_w4));
        self.ledger.op(
            (share_w2 / 2.0 - 1.0).abs() <= SHARE_TOLERANCE
                && (share_w4 / 4.0 - 1.0).abs() <= SHARE_TOLERANCE,
            || {
                format!(
                    "drain: completion shares w2={share_w2:.2} w4={share_w4:.2}, expected 2 and 4"
                )
            },
        );
        let (light, busy) = (&self.light, &self.busy);
        let mut e2e = Metrics::default();
        e2e.put("serve.light_p50_us", median(&light.latencies_us), "us");
        e2e.put("serve.busy_p50_us", median(&busy.latencies_us), "us");
        e2e.put("serve.drain_rps", median(&self.drain_rps), "req/s");

        let mut layers = Metrics::default();
        if traced {
            let per_kreq = |v: u64, p: &Phase| v as f64 * 1000.0 / p.sent.max(1) as f64;
            layers.put("serve.light_p99_us", median(&light.round_p99_us), "us");
            layers.put("serve.busy_p99_us", median(&busy.round_p99_us), "us");
            layers.put("serve.submit_us", median(&busy.hops.submit), "us");
            layers.put("serve.queue_us", median(&light.hops.queue), "us");
            layers.put("serve.queue_p99_us", pct_of(&busy.hops.queue, 0.99), "us");
            layers.put("serve.settle_us", median(&light.hops.settle), "us");
            let bodies: Vec<f64> = light
                .hops
                .body
                .iter()
                .chain(&busy.hops.body)
                .copied()
                .collect();
            layers.put("serve.body_us", median(&bodies), "us");
            layers.put("serve.share_w2", share_w2, "ratio");
            layers.put("serve.share_w4", share_w4, "ratio");
            layers.put(
                "pool.parks_per_kreq",
                per_kreq(light.parks, light),
                "count/kreq",
            );
            layers.put(
                "pool.wakes_per_kreq",
                per_kreq(light.wakes, light),
                "count/kreq",
            );
            layers.put(
                "pool.steals_per_kreq",
                per_kreq(busy.steals, busy),
                "count/kreq",
            );
            let lags: Vec<f64> = light
                .gen_lag_us
                .iter()
                .chain(&busy.gen_lag_us)
                .copied()
                .collect();
            layers.put("bench.gen_lag_p99_us", pct_of(&lags, 0.99), "us");
        }
        (e2e, layers, self.ledger)
    }
}
