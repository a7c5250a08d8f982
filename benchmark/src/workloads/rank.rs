//! `rank_full`: Sec. V-B's filtered ranking protocol over valid + test at a
//! 100k-entity table (25.6 MB, read in full by every block).
//!
//! The model is randomly initialised: training 100k entities is out of the
//! run's budget, and the cost of ranking does not depend on the values.

use super::{repeat_setup, timed, Outcome, SetupParts, SetupTimes, TRACED_SHARE};
use crate::host::{self, POLICY};
use crate::json::Json;
use crate::probes;
use crate::stats::{best_window, median};
use crate::trace::Tracer;
use autosf_repro::kg_core::{FilterIndex, Triple};
use autosf_repro::kg_eval::engine::BLOCK;
use autosf_repro::kg_eval::ranking::{evaluate_parallel_with, evaluate_sequential, evaluate_with};
use autosf_repro::kg_linalg::gemm::gemm_nt_with;
use autosf_repro::kg_linalg::SeededRng;
use autosf_repro::kg_models::{classics, BatchScorer, BatchScratch, BlmModel, Embeddings};
use std::time::Instant;

pub const N_ENTITIES: usize = 100_000;
pub const DIM: usize = 64;
/// Symmetric pairs per symmetric relation; triples per other relation.
pub const SYM_N: usize = 4_000;
pub const OTHER_N: usize = 8_000;
/// Triples per timed `evaluate_parallel_with` call: 4 full blocks, two
/// directions each, about 0.2 s on one thread. A pass over valid + test
/// is 30 such slices.
pub const SLICE: usize = 256;
/// One-triple calls (a tail and a head query, about 6 ms) per `latency_ms`
/// window; one window follows each slice. The smallest request a caller
/// can make, and short enough to fit between a neighbour's bursts: its
/// best window repeats to 3 % where a 64-triple call's repeats to 13 %.
pub const SINGLE_CALLS_PER_WINDOW: usize = 10;
/// Triples ranked once, untimed, at the end of set-up: one block.
pub const WARM: usize = 64;
/// Slices timed for each of `kg-eval.seq_pass_s` and the full-width pass
/// behind `kg-eval.par_efficiency`; the fastest counts.
pub const SCALING_REPS: usize = 5;
/// Triples of the output check against `evaluate_sequential`.
pub const CHECK: usize = 128;

pub fn constants() -> Json {
    Json::obj([
        ("n_entities", Json::Num(N_ENTITIES as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("sym_pairs_per_relation", Json::Num(SYM_N as f64)),
        ("triples_per_other_relation", Json::Num(OTHER_N as f64)),
        ("slice_triples", Json::Num(SLICE as f64)),
        ("single_calls_per_window", Json::Num(SINGLE_CALLS_PER_WINDOW as f64)),
        ("warm_triples", Json::Num(WARM as f64)),
        ("check_triples", Json::Num(CHECK as f64)),
        ("scaling_reps", Json::Num(SCALING_REPS as f64)),
        ("model", Json::str("ComplEx, random init (training 100k entities is out of budget)")),
    ])
}

struct Ctx {
    model: BlmModel,
    filter: FilterIndex,
    /// valid ++ test
    queries: Vec<Triple>,
}

fn build(seed: u64, parts: &mut SetupParts) -> Ctx {
    let ds = timed(&mut parts.datagen_s, || super::relation_mix(N_ENTITIES, SYM_N, OTHER_N, seed));
    let filter = timed(&mut parts.filter_build_s, || FilterIndex::from_dataset(&ds));
    let model = timed(&mut parts.model_init_s, || {
        let mut rng = SeededRng::new(seed ^ 0x7261_6e6b);
        let emb = Embeddings::init(ds.n_entities, ds.n_relations, DIM, &mut rng);
        BlmModel::new(classics::complex(), emb)
    });
    let mut queries = ds.valid;
    queries.extend_from_slice(&ds.test);
    assert!(queries.len() >= SLICE, "relation mix too small for one slice");
    let warm = evaluate_parallel_with(POLICY, &model, &queries[..WARM], &filter, host::threads());
    std::hint::black_box(warm);
    Ctx { model, filter, queries }
}

pub fn time_setup(seed: u64) -> SetupTimes {
    repeat_setup(|parts| build(seed, parts))
}

struct Measured {
    /// Seconds of each timed slice.
    slice_s: Vec<f64>,
    /// Seconds of each one-triple call.
    single_call_s: Vec<f64>,
    queries: u64,
    non_finite: u64,
}

impl Measured {
    /// Queries per second of the fastest slice, and the share of slices
    /// more than 10 % slower.
    fn qps(&self) -> (f64, f64) {
        let (secs, contended) = best_window(&self.slice_s, 1, true);
        ((2 * SLICE) as f64 / secs, contended)
    }
}

fn measure(ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> Measured {
    let threads = host::threads();
    let (mut queries, mut non_finite) = (0u64, 0u64);
    let mut call = |triples: &[Triple], into: &mut Vec<f64>, tracer: &mut Tracer| {
        let t0 = Instant::now();
        let metrics = tracer.span("kg-eval.evaluate_parallel_with", |_| {
            evaluate_parallel_with(POLICY, &ctx.model, triples, &ctx.filter, threads)
        });
        into.push(t0.elapsed().as_secs_f64());
        queries += metrics.n_queries as u64;
        if !(metrics.mrr.is_finite() && metrics.mr.is_finite()) {
            non_finite += metrics.n_queries as u64;
        }
    };
    // a slice, then one window of one-triple calls, and again: both
    // statistics sample the whole run, so a slow stretch of the host costs
    // each some windows, not one of them all of its windows
    let started = Instant::now();
    let slices: Vec<&[Triple]> = ctx.queries.chunks_exact(SLICE).collect();
    let singles: Vec<&[Triple]> = ctx.queries.chunks_exact(1).collect();
    let (mut slice_s, mut single_call_s) = (Vec::new(), Vec::new());
    while slice_s.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        call(slices[slice_s.len() % slices.len()], &mut slice_s, tracer);
        for _ in 0..SINGLE_CALLS_PER_WINDOW {
            call(singles[single_call_s.len() % singles.len()], &mut single_call_s, tracer);
        }
    }
    Measured { slice_s, single_call_s, queries, non_finite }
}

pub fn run(seed: u64, seconds: f64, setup: SetupTimes, trace: &mut Tracer) -> Outcome {
    let par_threads = host::par_threads();
    let ctx = build(seed, &mut SetupParts::default());

    let base = measure(&ctx, seconds, &mut Tracer::new(false));
    let (qps, contended) = base.qps();
    let (single_call_s, _) = best_window(&base.single_call_s, SINGLE_CALLS_PER_WINDOW, true);
    let mut out = Outcome {
        attempted: base.queries,
        failed: base.non_finite,
        check_failures: Vec::new(),
        throughput: qps,
        latency_ms: 1e3 * single_call_s,
        setup,
        layers: Vec::new(),
        detail: vec![
            ("queries_per_pass", Json::Num((2 * ctx.queries.len()) as f64)),
            ("timed_slices", Json::Num(base.slice_s.len() as f64)),
            ("median_slice_qps", Json::Num((2 * SLICE) as f64 / median(&mut base.slice_s.clone()))),
            ("contended_slice_share", Json::Num(contended)),
            ("single_calls", Json::Num(base.single_call_s.len() as f64)),
            ("median_single_call_ms", Json::Num(1e3 * median(&mut base.single_call_s.clone()))),
        ],
    };

    // Output check: the parallel engine equals the per-query reference.
    let subset = &ctx.queries[..CHECK];
    let t0 = Instant::now();
    let reference = evaluate_sequential(&ctx.model, subset, &ctx.filter);
    let reference_s = t0.elapsed().as_secs_f64();
    let parallel = host::on_all_cores(|| {
        evaluate_parallel_with(POLICY, &ctx.model, subset, &ctx.filter, par_threads)
    });
    out.check(parallel == reference, || {
        format!("evaluate_parallel_with {parallel:?} != evaluate_sequential {reference:?}")
    });

    if trace.enabled() {
        let table = &ctx.model.emb.ent;
        let slice = &ctx.queries[..SLICE];
        let mut traced_qps = 0.0;
        let (triad, fma_peak, nt, count, scorer_s, seq_s, wide_s) = trace.span("rank_full", |t| {
            traced_qps = t.span("measure", |t| measure(&ctx, TRACED_SHARE * seconds, t)).qps().0;
            let triad = t.span("probe.triad", |_| probes::triad());
            let fma_peak = t.span("probe.fma_peak", |_| probes::fma_peak_gflops());
            let count = t.span("kg-linalg.count_cmp", |_| probes::count_cmp(N_ENTITIES, 0.1));
            // one block through the scorer and through the raw kernel it
            // wraps, alternately, into the same score buffer
            let (nt_s, scorer_s) = t.span("kg-models.score_tails_batch", |_| {
                let queries: Vec<(usize, usize)> =
                    slice[..BLOCK].iter().map(|tr| (tr.h.idx(), tr.r.idx())).collect();
                let a = probes::random_table(BLOCK, DIM, seed);
                let scores = std::cell::RefCell::new(vec![0.0f32; BLOCK * N_ENTITIES]);
                let mut scratch = BatchScratch::with_policy(POLICY);
                probes::best_pair_s(
                    8,
                    || {
                        gemm_nt_with(
                            POLICY,
                            a.as_slice(),
                            BLOCK,
                            DIM,
                            table,
                            &mut scores.borrow_mut(),
                        )
                    },
                    || {
                        ctx.model.score_tails_batch(
                            &queries,
                            &mut scores.borrow_mut(),
                            &mut scratch,
                        )
                    },
                )
            });
            let nt = probes::GemmNt::of(BLOCK, N_ENTITIES, DIM, nt_s);
            // the single-thread baseline: the same slice through the
            // plain one-thread evaluator
            let fastest_of = |reps: usize, pass: &dyn Fn()| {
                let secs = (0..reps).map(|_| {
                    let t0 = Instant::now();
                    pass();
                    t0.elapsed().as_secs_f64()
                });
                secs.fold(f64::INFINITY, f64::min)
            };
            let seq_s = t.span("kg-eval.evaluate_with", |_| {
                fastest_of(SCALING_REPS, &|| {
                    std::hint::black_box(evaluate_with(POLICY, &ctx.model, slice, &ctx.filter));
                })
            });
            // and through the parallel engine at full width
            let wide_s = t.span("kg-eval.evaluate_parallel_with", |_| {
                host::on_all_cores(|| {
                    fastest_of(SCALING_REPS, &|| {
                        std::hint::black_box(evaluate_parallel_with(
                            POLICY,
                            &ctx.model,
                            slice,
                            &ctx.filter,
                            par_threads,
                        ));
                    })
                })
            });
            (triad, fma_peak, nt, count, scorer_s, seq_s, wide_s)
        });
        let par_s = (2 * SLICE) as f64 / qps;
        let blocks_per_slice = (SLICE / BLOCK) as f64;
        let modelled = blocks_per_slice * 2.0 * scorer_s + (2 * SLICE) as f64 * count.0;
        out.layers = vec![
            ("kg-linalg.triad_gbps", triad.gbps),
            ("kg-linalg.fma_peak_gflops", fma_peak),
            ("kg-linalg.gemm_nt_100k_gflops", nt.gflops),
            ("kg-linalg.gemm_nt_100k_bw_share", nt.computed_bytes / nt.secs / 1e9 / triad.gbps),
            ("kg-linalg.count_cmp_100k_gbps", count.1),
            ("kg-models.score_tails_batch_100k_ms", 1e3 * scorer_s),
            ("kg-models.scorer_overhead_share", 1.0 - nt.secs / scorer_s),
            ("kg-eval.seq_pass_s", seq_s),
            ("kg-eval.par_efficiency", seq_s / (par_threads as f64 * wide_s)),
            ("kg-eval.block_ms", 1e3 * par_s / blocks_per_slice),
            ("kg-eval.engine_overhead_share", 1.0 - modelled / seq_s),
            ("kg-eval.reference_qps", (2 * CHECK) as f64 / reference_s),
            ("trace_overhead_share", qps / traced_qps - 1.0),
        ];
        out.detail.push(("par_threads", Json::Num(par_threads as f64)));
        out.detail.push(("full_width_slice_s", Json::Num(wide_s)));
        out.detail.push(("triad_array_bytes", Json::Num(triad.array_bytes as f64)));
        out.detail.push(("gemm_nt_100k_computed_bytes", Json::Num(nt.computed_bytes)));
    }
    out
}
