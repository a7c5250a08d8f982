//! `serve_mixed`: the kernels and block engine of `rank_full`, driven
//! online through `kg-serve` with under-filled blocks, so dispatcher
//! wake-ups, queueing and block cutting matter.
//!
//! One generator thread (this one) drives three phases: `rtt`, a closed
//! loop with one request outstanding; `saturate`, a closed loop that keeps
//! a window of tickets outstanding; `open`, an open loop at a fixed rate,
//! where the generator sleeps to its next tick and never spins. The engine
//! is built on the cores `host::pin` chose and its threads stay there; the
//! generator runs on a core outside them (`host::on_spare_core`), so it
//! takes no time from the engine and every wake-up between the two takes
//! the same path. In the closed loops it waits on a ticket most of the
//! time.

use super::{repeat_setup, timed, Outcome, SetupParts, SetupTimes, TRACED_SHARE};
use crate::host::{self, POLICY};
use crate::json::Json;
use crate::probes;
use crate::stats::{best_window, median, percentile_sorted};
use crate::trace::Tracer;
use autosf_repro::kg_core::{FilterIndex, Triple};
use autosf_repro::kg_eval::ranking::{evaluate_with, filtered_rank};
use autosf_repro::kg_linalg::SeededRng;
use autosf_repro::kg_models::{classics, BlmModel, Embeddings, LinkPredictor};
use autosf_repro::kg_serve::{EngineStats, KgEngine, RankTicket};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N_ENTITIES: usize = 10_000;
pub const DIM: usize = 64;
/// Symmetric pairs per symmetric relation; triples per other relation:
/// about 24k known triples in the filter.
pub const SYM_N: usize = 1_000;
pub const OTHER_N: usize = 2_000;
pub const BLOCK: usize = 64;
pub const WARM_QUERIES: usize = 256;
/// Tickets kept outstanding in `saturate`.
pub const WINDOW: usize = 256;
/// Offered load of `open`, requests per second: a constant (below half of
/// saturation on the 2-core host this was sized on), so that parent and
/// change see the same load.
pub const OPEN_RATE: f64 = 8_000.0;
pub const TICK: Duration = Duration::from_millis(1);
/// Rounds of (rtt, saturate, open); each round's `open` is one window of
/// the per-layer latency quantiles.
pub const ROUNDS: usize = 5;
/// Seconds of one `saturate` window and round trips of one `rtt` window;
/// the run reports its best window of each.
pub const SATURATE_WINDOW_S: f64 = 0.2;
pub const RTT_WINDOW: usize = 200;
/// Shares of `--seconds` given to the three phases.
pub const RTT_SHARE: f64 = 0.15;
pub const SATURATE_SHARE: f64 = 0.25;
pub const OPEN_SHARE: f64 = 0.6;
/// Answers compared with the per-query reference.
pub const CHECK_SAMPLES: usize = 256;
/// Every n-th request's answer is kept for that check.
const SAMPLE_STRIDE: usize = 101;
/// Triples of the one-thread offline pass `facade_share` is stated against.
const OFFLINE_TRIPLES: usize = 512;

pub fn constants() -> Json {
    Json::obj([
        ("n_entities", Json::Num(N_ENTITIES as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("sym_pairs_per_relation", Json::Num(SYM_N as f64)),
        ("triples_per_other_relation", Json::Num(OTHER_N as f64)),
        ("block", Json::Num(BLOCK as f64)),
        ("warm_queries", Json::Num(WARM_QUERIES as f64)),
        ("saturate_tickets", Json::Num(WINDOW as f64)),
        ("saturate_window_s", Json::Num(SATURATE_WINDOW_S)),
        ("rtt_window_round_trips", Json::Num(RTT_WINDOW as f64)),
        ("open_rate_per_s", Json::Num(OPEN_RATE)),
        ("tick_ms", Json::Num(TICK.as_secs_f64() * 1e3)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("rtt_share", Json::Num(RTT_SHARE)),
        ("saturate_share", Json::Num(SATURATE_SHARE)),
        ("open_share", Json::Num(OPEN_SHARE)),
        ("check_samples", Json::Num(CHECK_SAMPLES as f64)),
        ("model", Json::str("ComplEx, random init")),
    ])
}

struct Ctx {
    model: Arc<BlmModel>,
    filter: FilterIndex,
    /// Every generated triple, shuffled: request `i` asks for the tail of
    /// `requests[i % len]` when `i` is even, for its head when odd.
    requests: Vec<Triple>,
    engine: KgEngine,
}

fn build(seed: u64, parts: &mut SetupParts) -> Ctx {
    let ds = timed(&mut parts.datagen_s, || super::relation_mix(N_ENTITIES, SYM_N, OTHER_N, seed));
    let filter = timed(&mut parts.filter_build_s, || FilterIndex::from_dataset(&ds));
    let model = timed(&mut parts.model_init_s, || {
        let mut rng = SeededRng::new(seed ^ 0x7365_7276);
        let emb = Embeddings::init(ds.n_entities, ds.n_relations, DIM, &mut rng);
        Arc::new(BlmModel::new(classics::complex(), emb))
    });
    let mut requests = ds.all_triples();
    SeededRng::new(seed ^ 0x7265_7173).shuffle(&mut requests);
    let engine = KgEngine::with_filter(Arc::clone(&model), filter.clone())
        .threads(host::threads())
        .block(BLOCK)
        .policy(POLICY)
        .build();
    let warm: Vec<RankTicket> = (0..WARM_QUERIES)
        .map(|i| submit_nth(&engine, &requests, i).expect("warm-up request admitted"))
        .collect();
    for ticket in warm {
        ticket.wait();
    }
    Ctx { model, filter, requests, engine }
}

pub fn time_setup(seed: u64) -> SetupTimes {
    repeat_setup(|parts| build(seed, parts))
}

fn submit_nth(
    engine: &KgEngine,
    requests: &[Triple],
    i: usize,
) -> Result<RankTicket, autosf_repro::kg_serve::SubmitError> {
    let tr = requests[i % requests.len()];
    let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
    if i.is_multiple_of(2) {
        engine.submit_rank_tail(h, r, t)
    } else {
        engine.submit_rank_head(h, r, t)
    }
}

/// The generator's side of the engine: submits the request stream in
/// order, settles tickets, and counts what happened to every request.
struct Client<'a> {
    ctx: &'a Ctx,
    /// Number of the next request.
    next: usize,
    shed: u64,
    admitted: u64,
    answered: u64,
    /// Tickets that settled with an error (failed or expired).
    errored: u64,
    submit_s: f64,
    /// (request number, served rank) of every `SAMPLE_STRIDE`-th request.
    samples: Vec<(usize, f64)>,
}

impl Client<'_> {
    /// Submit the next request; `None` when the engine shed it.
    fn submit(&mut self, tracer: &mut Tracer) -> Option<(usize, RankTicket)> {
        let no = self.next;
        self.next += 1;
        let t0 = Instant::now();
        let ticket = submit_nth(&self.ctx.engine, &self.ctx.requests, no);
        let t1 = Instant::now();
        self.submit_s += (t1 - t0).as_secs_f64();
        tracer.record("kg-serve.submit", t0, t1);
        match ticket {
            Ok(ticket) => {
                self.admitted += 1;
                Some((no, ticket))
            }
            Err(_) => {
                self.shed += 1;
                None
            }
        }
    }

    fn settle(&mut self, no: usize, ticket: RankTicket) {
        match ticket.wait_result() {
            Ok(rank) => {
                self.answered += 1;
                if no.is_multiple_of(SAMPLE_STRIDE) && self.samples.len() < CHECK_SAMPLES {
                    self.samples.push((no, rank));
                }
            }
            Err(_) => self.errored += 1,
        }
    }
}

/// Engine counters summed over the rounds of one phase.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    blocks_cut: u64,
    served: u64,
    overlapped: u64,
    lead_idle: u64,
    crew_idle: u64,
}

impl PhaseCounters {
    /// Add what happened between two snapshots.
    fn add(&mut self, before: &EngineStats, after: &EngineStats) {
        self.blocks_cut += after.blocks_cut - before.blocks_cut;
        self.served += after.queries_served - before.queries_served;
        self.overlapped += after.blocks_overlapped - before.blocks_overlapped;
        self.lead_idle += after.lead_idle - before.lead_idle;
        self.crew_idle += after.crew_idle - before.crew_idle;
    }

    fn per_block(&self, count: u64) -> f64 {
        if self.blocks_cut == 0 {
            0.0
        } else {
            count as f64 / self.blocks_cut as f64
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("blocks_cut", Json::Num(self.blocks_cut as f64)),
            ("mean_block_fill", Json::Num(self.per_block(self.served))),
            ("overlapped_share", Json::Num(self.per_block(self.overlapped))),
            ("lead_idle_per_block", Json::Num(self.per_block(self.lead_idle))),
            ("crew_idle_per_block", Json::Num(self.per_block(self.crew_idle))),
        ])
    }
}

struct Measured {
    rtt_ms: Vec<f64>,
    /// Answered per second in each `saturate` window.
    saturate_qps: Vec<f64>,
    /// Per round: latencies of its `open` window in ms from each request's
    /// due time, sorted.
    open_ms: Vec<Vec<f64>>,
    /// How late the generator woke for each tick of `open`, in ms.
    late_ms: Vec<f64>,
    submit_us: f64,
    /// rtt, saturate, open
    counters: [PhaseCounters; 3],
    attempted: u64,
    failed: u64,
    admitted: u64,
    samples: Vec<(usize, f64)>,
}

impl Measured {
    /// Answered per second in the best `saturate` window, and the share of
    /// windows more than 10 % below it.
    fn capacity_qps(&self) -> (f64, f64) {
        best_window(&self.saturate_qps, 1, false)
    }

    /// Median round trip of the best `rtt` window.
    fn rtt_ms(&self) -> (f64, f64) {
        best_window(&self.rtt_ms, RTT_WINDOW, true)
    }

    /// Median over the rounds of the per-round quantile of `open`, with
    /// the smallest and largest round.
    fn open_quantile(&self, q: f64) -> (f64, f64, f64) {
        let mut per_round: Vec<f64> =
            self.open_ms.iter().map(|w| percentile_sorted(w, q)).collect();
        let med = median(&mut per_round);
        (med, per_round.first().copied().unwrap_or(0.0), per_round.last().copied().unwrap_or(0.0))
    }
}

/// Closed loop, one request outstanding, for `secs`; round trips in ms.
fn rtt_phase(client: &mut Client, secs: f64, rtt_ms: &mut Vec<f64>, t: &mut Tracer) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        if let Some((no, ticket)) = client.submit(t) {
            client.settle(no, ticket);
            rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Closed loop, `WINDOW` tickets outstanding, for `secs`; answered per
/// second in each full window of `SATURATE_WINDOW_S`.
fn saturate_phase(client: &mut Client, secs: f64, qps: &mut Vec<f64>, t: &mut Tracer) {
    let started = Instant::now();
    let (mut window_start, mut window_answered) = (started, client.answered);
    let mut outstanding: VecDeque<(usize, RankTicket)> = VecDeque::with_capacity(WINDOW);
    while started.elapsed().as_secs_f64() < secs {
        while outstanding.len() < WINDOW {
            outstanding.extend(client.submit(t));
        }
        if let Some((no, ticket)) = outstanding.pop_front() {
            client.settle(no, ticket);
        }
        let in_window = window_start.elapsed().as_secs_f64();
        if in_window >= SATURATE_WINDOW_S {
            qps.push((client.answered - window_answered) as f64 / in_window);
            (window_start, window_answered) = (Instant::now(), client.answered);
        }
    }
    for (no, ticket) in outstanding {
        client.settle(no, ticket);
    }
}

/// Open loop: `n_requests` at `OPEN_RATE`, request `k` due `k / OPEN_RATE`
/// after the start. The generator wakes on its tick, submits what has come
/// due, polls what is outstanding, and sleeps to the next tick. Returns
/// the sorted latencies in ms, each from the request's due time to the
/// tick that saw it settled.
fn open_phase(
    client: &mut Client,
    n_requests: usize,
    late_ms: &mut Vec<f64>,
    t: &mut Tracer,
) -> Vec<f64> {
    let due = |k: usize| Duration::from_secs_f64(k as f64 / OPEN_RATE);
    let started = Instant::now();
    // (request number, position in the phase, ticket)
    let mut outstanding: Vec<(usize, usize, RankTicket)> = Vec::new();
    let mut waited_ms = Vec::with_capacity(n_requests);
    let mut sent = 0usize;
    let mut tick = 0u32;
    // after the last request is due, allow the engine two seconds to
    // settle what is still queued; what is left then counts as failed
    let give_up = due(n_requests) + Duration::from_secs(2);
    while (sent < n_requests || !outstanding.is_empty()) && started.elapsed() < give_up {
        let now = started.elapsed();
        late_ms.push((now.saturating_sub(TICK * tick)).as_secs_f64() * 1e3);
        while sent < n_requests && due(sent) <= now {
            if let Some((no, ticket)) = client.submit(t) {
                outstanding.push((no, sent, ticket));
            }
            sent += 1;
        }
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].2.is_settled() {
                let (no, k, ticket) = outstanding.swap_remove(i);
                waited_ms.push(started.elapsed().saturating_sub(due(k)).as_secs_f64() * 1e3);
                client.settle(no, ticket);
            } else {
                i += 1;
            }
        }
        tick += 1;
        std::thread::sleep((TICK * tick).saturating_sub(started.elapsed()));
    }
    client.errored += outstanding.len() as u64;
    waited_ms.sort_by(f64::total_cmp);
    waited_ms
}

/// `ROUNDS` rounds of rtt, saturate and open, each phase a fifth of its
/// share of `seconds` per round: every statistic samples the whole run, so
/// a slow stretch of the host costs each some windows, not one of them all
/// of its windows.
fn measure(ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> Measured {
    let engine = &ctx.engine;
    let mut client = Client {
        ctx,
        next: WARM_QUERIES,
        shed: 0,
        admitted: 0,
        answered: 0,
        errored: 0,
        submit_s: 0.0,
        samples: Vec::new(),
    };
    let per_round = seconds / ROUNDS as f64;
    let (mut rtt_ms, mut saturate_qps, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut open_ms = Vec::with_capacity(ROUNDS);
    let mut counters = [PhaseCounters::default(); 3];
    for _ in 0..ROUNDS {
        let s0 = engine.stats();
        tracer.span("phase.rtt", |t| rtt_phase(&mut client, per_round * RTT_SHARE, &mut rtt_ms, t));
        let s1 = engine.stats();
        tracer.span("phase.saturate", |t| {
            saturate_phase(&mut client, per_round * SATURATE_SHARE, &mut saturate_qps, t)
        });
        let s2 = engine.stats();
        let n_requests = (per_round * OPEN_SHARE * OPEN_RATE) as usize;
        open_ms.push(
            tracer.span("phase.open", |t| open_phase(&mut client, n_requests, &mut late_ms, t)),
        );
        let s3 = engine.stats();
        for (c, (before, after)) in counters.iter_mut().zip([(&s0, &s1), (&s1, &s2), (&s2, &s3)]) {
            c.add(before, after);
        }
    }

    let attempted = client.admitted + client.shed;
    Measured {
        rtt_ms,
        saturate_qps,
        open_ms,
        late_ms,
        submit_us: 1e6 * client.submit_s / attempted.max(1) as f64,
        counters,
        attempted,
        failed: client.shed + client.errored,
        admitted: client.admitted,
        samples: client.samples,
    }
}

/// The rank request `no` must get: one score row through the per-query
/// `LinkPredictor`, ranked with `filtered_rank`.
fn reference_rank(ctx: &Ctx, no: usize, scores: &mut [f32]) -> f64 {
    let tr = ctx.requests[no % ctx.requests.len()];
    if no.is_multiple_of(2) {
        ctx.model.score_tails(tr.h.idx(), tr.r.idx(), scores);
        filtered_rank(scores, tr.t.idx(), ctx.filter.tails(tr.h, tr.r))
    } else {
        ctx.model.score_heads(tr.r.idx(), tr.t.idx(), scores);
        filtered_rank(scores, tr.h.idx(), ctx.filter.heads(tr.r, tr.t))
    }
}

pub fn run(seed: u64, seconds: f64, setup: SetupTimes, trace: &mut Tracer) -> Outcome {
    let ctx = build(seed, &mut SetupParts::default());
    let before = ctx.engine.stats();

    let base = host::on_spare_core(|| measure(&ctx, seconds, &mut Tracer::new(false)));
    let (capacity_qps, contended) = base.capacity_qps();
    let (rtt_ms, rtt_contended) = base.rtt_ms();
    let (p50, p50_min, p50_max) = base.open_quantile(0.5);
    let mut out = Outcome {
        attempted: base.attempted,
        failed: base.failed,
        check_failures: Vec::new(),
        throughput: capacity_qps,
        latency_ms: rtt_ms,
        setup,
        layers: Vec::new(),
        detail: vec![
            ("rtt_samples", Json::Num(base.rtt_ms.len() as f64)),
            ("rtt_median_ms", Json::Num(median(&mut base.rtt_ms.clone()))),
            ("contended_rtt_window_share", Json::Num(rtt_contended)),
            ("saturate_windows", Json::Num(base.saturate_qps.len() as f64)),
            ("saturate_median_qps", Json::Num(median(&mut base.saturate_qps.clone()))),
            ("contended_saturate_window_share", Json::Num(contended)),
            ("open_p50_ms", Json::Num(p50)),
            ("open_p50_ms_min_window", Json::Num(p50_min)),
            ("open_p50_ms_max_window", Json::Num(p50_max)),
            ("open_samples", Json::Num(base.open_ms.iter().map(Vec::len).sum::<usize>() as f64)),
            ("known_triples", Json::Num(ctx.filter.len() as f64)),
            ("rtt", base.counters[0].json()),
            ("saturate", base.counters[1].json()),
            ("open", base.counters[2].json()),
        ],
    };

    // Output checks: sampled answers equal the per-query reference, and
    // the engine's own accounting closes.
    let mut scores = vec![0.0f32; N_ENTITIES];
    let wrong =
        base.samples.iter().filter(|&&(no, rank)| reference_rank(&ctx, no, &mut scores) != rank);
    let wrong = wrong.count();
    out.failed += wrong as u64;
    out.check(wrong == 0 && base.samples.len() == CHECK_SAMPLES, || {
        format!("{wrong} of {} sampled answers differ from the reference", base.samples.len())
    });
    let after = ctx.engine.stats();
    let settled = (after.queries_served - before.queries_served)
        + (after.queries_failed - before.queries_failed)
        + (after.queries_expired - before.queries_expired);
    out.check(settled == base.admitted, || {
        format!("served + failed + expired = {settled}, admitted = {}", base.admitted)
    });
    let depths = (after.depth_score, after.depth_tails, after.depth_heads);
    out.check(depths == (0, 0, 0), || format!("queue depths {depths:?} after the run"));

    if trace.enabled() {
        let mut traced_qps = 0.0;
        let (fma_peak, nt64, nt1, offline_qps) = trace.span("serve_mixed", |t| {
            traced_qps = t
                .span("measure", |t| {
                    host::on_spare_core(|| measure(&ctx, TRACED_SHARE * seconds, t))
                })
                .capacity_qps()
                .0;
            let fma_peak = t.span("probe.fma_peak", |_| probes::fma_peak_gflops());
            let table = &ctx.model.emb.ent;
            let nt64 = t.span("kg-linalg.gemm_nt", |_| probes::gemm_nt(table, BLOCK, 0.2));
            let nt1 = t.span("kg-linalg.gemm_nt", |_| probes::gemm_nt(table, 1, 0.2));
            let offline_qps = t.span("kg-eval.evaluate_with", |_| {
                let triples = &ctx.requests[..OFFLINE_TRIPLES];
                let t0 = Instant::now();
                std::hint::black_box(evaluate_with(POLICY, &*ctx.model, triples, &ctx.filter));
                (2 * OFFLINE_TRIPLES) as f64 / t0.elapsed().as_secs_f64()
            });
            (fma_peak, nt64, nt1, offline_qps)
        });
        let (p99, p99_min, p99_max) = base.open_quantile(0.99);
        let (p999, p999_min, p999_max) = base.open_quantile(0.999);
        let [_, saturate, open] = base.counters;
        let mut late = base.late_ms.clone();
        late.sort_by(f64::total_cmp);
        out.layers = vec![
            ("kg-linalg.fma_peak_gflops", fma_peak),
            ("kg-linalg.gemm_nt_10k_gflops", nt64.gflops),
            ("kg-linalg.gemm_nt_10k_1row_us", 1e6 * nt1.secs),
            ("kg-serve.open_p50_ms", p50),
            ("kg-serve.open_p99_ms", p99),
            ("kg-serve.open_p999_ms", p999),
            ("kg-serve.generator_late_ms", late.last().copied().unwrap_or(0.0)),
            ("kg-serve.mean_block_fill", open.per_block(open.served)),
            ("kg-serve.saturate_block_fill", saturate.per_block(saturate.served)),
            ("kg-serve.blocks_cut", base.counters.iter().map(|c| c.blocks_cut as f64).sum()),
            ("kg-serve.overlapped_share", open.per_block(open.overlapped)),
            ("kg-serve.lead_idle_per_block", open.per_block(open.lead_idle)),
            ("kg-serve.crew_idle_per_block", open.per_block(open.crew_idle)),
            ("kg-serve.submit_us", base.submit_us),
            ("kg-serve.facade_share", capacity_qps / offline_qps),
            ("trace_overhead_share", capacity_qps / traced_qps - 1.0),
        ];
        out.detail.extend([
            ("open_p99_ms_min_window", Json::Num(p99_min)),
            ("open_p99_ms_max_window", Json::Num(p99_max)),
            ("open_p999_ms_min_window", Json::Num(p999_min)),
            ("open_p999_ms_max_window", Json::Num(p999_max)),
            ("generator_late_ms_p99", Json::Num(percentile_sorted(&late, 0.99))),
            ("offline_one_thread_qps", Json::Num(offline_qps)),
        ]);
    }
    out
}
