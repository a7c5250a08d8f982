//! Self-harnessed micro-benchmarks (no external bench framework — the
//! build runs offline), focused on the batched scoring engine.
//!
//! The headline case compares filtered-ranking throughput of the per-query
//! GEMV path (`evaluate_sequential`) against the batched GEMM path
//! (`evaluate`) at the paper's search dimension (d = 64) on a 10k-entity
//! table — the workload the engine was built for. The serving section
//! measures the same workload through `kg-serve`'s request-level facade,
//! one-at-a-time dispatch (`block(1)`) vs 64-query batching. The kernel
//! section A/Bs the explicit-SIMD backend against the forced-scalar
//! reference (`KG_FORCE_SCALAR` would pin the whole process; here the
//! public `*_scalar` entry points measure the fallback directly), and the
//! `rank_100k_d64` scenario stretches the entity table past the shared
//! cache — the regime the sharding layer was built for — with 2/4/8-worker
//! scaling rows for the entity-sharded parallel evaluator. The training section
//! times one multi-class epoch on the same 10k-entity scenario through the
//! sequential trainer and through the cooperative crew at 2/4 threads —
//! which must train the sequential model bit for bit — with the 4-thread
//! 2× gate armed only on runners with >= 4 logical cores. Ranking rows
//! calibrate their iteration counts to a minimum wall-time per repetition
//! instead of hard-coding them, so no gate ever compares single noisy
//! samples, and the two sides of every kernel ratio gate are timed
//! alternately (`time_pair`), so a slow spell of the host cannot land on
//! one side only.
//! Results are printed and written to `BENCH_microbench.json` — rows plus
//! a metadata record of the detected CPU features, the dispatched kernel
//! backend, and the logical/physical core counts, so trajectories (and
//! scaling efficiencies) compared across machines are interpretable.
//!
//! Run with `cargo bench -p bench`.

use kg_core::{Dataset, FilterIndex, Triple};
use kg_eval::ranking::{evaluate_parallel_with, evaluate_sequential, evaluate_with};
use kg_linalg::{gemm, simd, vecops, KernelPolicy, Mat, SeededRng};
use kg_models::blm::classics;
use kg_models::{BatchScorer, BatchScratch, BlmModel, Embeddings, LinkPredictor};
use kg_serve::{KgEngine, RequestClass, SubmitError};
use kg_train::{TrainConfig, Trainer};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark row of the JSON artefact.
#[derive(Debug, Serialize)]
struct BenchRow {
    name: String,
    iters: usize,
    secs_per_iter: f64,
    throughput: Option<f64>,
    throughput_unit: Option<String>,
    /// Which kernel this row's hot path dispatched to — `avx512+fma`,
    /// `avx2+fma` or `scalar` for rows that touch the dispatched kernels (the per-query
    /// ranking baseline counts: its GEMV is undispatched but its rank
    /// sweep is the dispatched `count_cmp`), explicitly `scalar` for the
    /// forced-scalar A/B rows, `None` for rows that never enter them
    /// (e.g. the raw GEMV loop and the single-query scoring adapter).
    backend: Option<String>,
}

/// Provenance for cross-machine trajectory comparisons: which CPU features
/// the runner detected, which backend the one-time dispatch selected, and
/// how many cores the runner actually has — scaling-efficiency ratios are
/// uninterpretable without the core counts.
#[derive(Debug, Serialize)]
struct BenchMeta {
    /// [`simd::ResolvedKernel::name`] of the kernel this runner dispatches
    /// to: `avx512+fma` on AVX-512F, `avx2+fma` on AVX2 + FMA, else
    /// `scalar`.
    kernel_backend: String,
    avx2_detected: bool,
    fma_detected: bool,
    force_scalar_env: bool,
    /// Logical CPUs visible to this process (hyperthreads included).
    logical_cores: usize,
    /// Distinct physical cores (from `/proc/cpuinfo`; falls back to the
    /// logical count when the topology is unreadable).
    physical_cores: usize,
}

/// Distinct `(physical id, core id)` pairs from `/proc/cpuinfo`, the
/// physical-core count behind the logical CPUs; `logical` when the
/// topology is unreadable (non-Linux, restricted /proc).
fn physical_cores(logical: usize) -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical;
    };
    let mut package = String::new();
    let mut cores = std::collections::HashSet::new();
    for line in info.lines() {
        let value = || line.split(':').nth(1).map(|v| v.trim().to_string()).unwrap_or_default();
        if line.starts_with("physical id") {
            package = value();
        } else if line.starts_with("core id") {
            cores.insert((package.clone(), value()));
        }
    }
    if cores.is_empty() {
        logical
    } else {
        cores.len()
    }
}

/// The whole JSON artefact: metadata first, then the measurement rows.
#[derive(Debug, Serialize)]
struct BenchReport {
    meta: BenchMeta,
    rows: Vec<BenchRow>,
}

/// Wall-clock seconds per iteration of one timed repetition of `iters`
/// calls to `f`.
fn time_rep<R>(iters: usize, f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Best-of-5 wall-clock seconds per iteration of `f` — best-of smooths
/// scheduler noise on shared CI runners, where the 2× speedup gate runs.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..5).map(|_| time_rep(iters, &mut f)).fold(f64::INFINITY, f64::min)
}

/// Minimum wall-clock one timed repetition must spend: enough that a
/// single scheduler hiccup cannot dominate the measurement the gates
/// compare.
const MIN_REP_SECS: f64 = 0.05;

/// Iterations per repetition **calibrated to wall-time** instead of
/// hard-coded: one warm-up run is timed and the count chosen so each
/// repetition spends at least [`MIN_REP_SECS`]. This is what keeps the
/// gates honest — fixed counts rot as kernels speed up (the 100k rows
/// gated on `iters: 1`, a single noisy sample, before calibration).
fn calibrate<R>(f: &mut impl FnMut() -> R) -> usize {
    let once = time_rep(1, f).max(1e-9);
    ((MIN_REP_SECS / once).ceil() as usize).clamp(1, 1024)
}

/// [`time_best`] at the [`calibrate`]d iteration count; returns
/// `(iters, secs_per_iter)`.
fn time_calibrated<R>(mut f: impl FnMut() -> R) -> (usize, f64) {
    let iters = calibrate(&mut f);
    (iters, time_best(iters, f))
}

/// Repetitions per side of a [`time_pair`].
const PAIR_REPS: usize = 7;

/// Both sides of a ratio gate, timed **alternately** — `a`, `b`, `a`, `b`,
/// … for [`PAIR_REPS`] rounds at each side's [`calibrate`]d count — keeping
/// the best repetition of each: `((iters_a, secs_a), (iters_b, secs_b))`.
/// Two separate [`time_best`] runs sit seconds apart, so a slow spell of a
/// shared host can land on one side only and trip a gate on untouched
/// code; interleaved, both sides see the same host.
fn time_pair<A, B>(
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((usize, f64), (usize, f64)) {
    let (iters_a, iters_b) = (calibrate(&mut a), calibrate(&mut b));
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIR_REPS {
        best_a = best_a.min(time_rep(iters_a, &mut a));
        best_b = best_b.min(time_rep(iters_b, &mut b));
    }
    ((iters_a, best_a), (iters_b, best_b))
}

fn main() {
    // Log the dispatch decision up front (the CI microbench job greps for
    // this line) and freeze it for the row/meta provenance fields.
    let backend = simd::active_backend().name();
    let avx2_detected = simd::avx2_available();
    let avx512_detected = simd::avx512_available();
    #[cfg(target_arch = "x86_64")]
    let fma_detected = std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma_detected = false;
    let logical_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let physical_cores = physical_cores(logical_cores);
    println!(
        "cpu features: avx2={avx2_detected} fma={fma_detected} avx512f={avx512_detected} \
         (is_x86_feature_detected) → kernel backend: {backend}{}",
        if simd::force_scalar_requested() { " (forced scalar via KG_FORCE_SCALAR)" } else { "" }
    );
    println!("cores: {logical_cores} logical / {physical_cores} physical");

    let mut rows: Vec<BenchRow> = Vec::new();
    // `backend`: None for rows that never enter the dispatched kernels,
    // Some(name) for rows that do (the active backend, or "scalar" for the
    // explicit fallback rows).
    let mut record = |name: &str,
                      iters: usize,
                      secs: f64,
                      thr: Option<(f64, &str)>,
                      row_backend: Option<&str>| {
        println!(
            "{name:<42} {:>12.3} µs/iter{}",
            secs * 1e6,
            thr.map(|(v, u)| format!("  ({v:.0} {u})")).unwrap_or_default()
        );
        rows.push(BenchRow {
            name: name.to_string(),
            iters,
            secs_per_iter: secs,
            throughput: thr.map(|(v, _)| v),
            throughput_unit: thr.map(|(_, u)| u.to_string()),
            backend: row_backend.map(str::to_string),
        });
    };

    // ---- headline: filtered ranking, per-query GEMV vs batched GEMM ----
    // 10k entities at the paper's search dimension d = 64.
    let n_entities = 10_000;
    let dim = 64;
    let n_triples = 256;
    let mut rng = SeededRng::new(2020);
    let emb = Embeddings::init(n_entities, 4, dim, &mut rng);
    let model = BlmModel::new(classics::complex(), emb);
    let triples: Vec<Triple> = (0..n_triples)
        .map(|_| {
            Triple::new(
                rng.below(n_entities) as u32,
                rng.below(4) as u32,
                rng.below(n_entities) as u32,
            )
        })
        .collect();
    let filter = FilterIndex::build(&triples);
    let queries_per_iter = (2 * n_triples) as f64;

    let (seq_iters, seq) = time_calibrated(|| evaluate_sequential(&model, &triples, &filter));
    // The per-query baseline's scoring GEMV never dispatches, but its
    // filtered-rank sweep is the dispatched `count_cmp` — so the row is
    // backend-dependent and tagged as such.
    record(
        "rank_10k_d64_per_query_gemv",
        seq_iters,
        seq,
        Some((queries_per_iter / seq, "queries/s")),
        Some(backend),
    );
    let (bat_iters, bat) =
        time_calibrated(|| evaluate_with(KernelPolicy::Exact, &model, &triples, &filter));
    record(
        "rank_10k_d64_batched_gemm",
        bat_iters,
        bat,
        Some((queries_per_iter / bat, "queries/s")),
        Some(backend),
    );
    let speedup = seq / bat;
    println!("{:<42} {speedup:>11.2}x", "batched ranking speedup");
    // The batched path must reproduce the per-query reference bit for bit.
    assert_eq!(
        evaluate_with(KernelPolicy::Exact, &model, &triples, &filter),
        evaluate_sequential(&model, &triples, &filter),
        "batched and per-query ranking diverged"
    );

    // ---- parallel ranking: entity-table-sharded ----
    // One thread a contiguous entity shard, each ranking every query block
    // over its own shard (which stays resident in its private cache).
    // Calibrated iterations × best-of-5: multithreaded timings are noisier
    // than the single-threaded ones.
    for threads in [2usize, 4, 8] {
        let (sharded_iters, sharded) = time_calibrated(|| {
            evaluate_parallel_with(KernelPolicy::Exact, &model, &triples, &filter, threads)
        });
        record(
            &format!("rank_10k_d64_sharded_par{threads}"),
            sharded_iters,
            sharded,
            Some((queries_per_iter / sharded, "queries/s")),
            Some(backend),
        );
    }
    assert_eq!(
        evaluate_parallel_with(KernelPolicy::Exact, &model, &triples, &filter, 4),
        evaluate_sequential(&model, &triples, &filter),
        "sharded parallel ranking diverged from the sequential reference"
    );

    // ---- large tables: the entity table outgrows the shared cache ----
    // 100k entities × d = 64 is a ~25.6 MiB table — past the L2 of the CI
    // runners, so every block streams it from memory once. The ranker
    // scores and counts a block one `engine::TILE` of entities at a time,
    // so the scores it counts never leave L2 and the block is bound by its
    // GEMMs, not by a 64 × 100k score block written out and read back.
    // Recorded for trend-watching (wall-clock ratios at this size are
    // runner-dependent); the bit-identity assert is the hard gate.
    let big_entities = 100_000;
    let big_triples: Vec<Triple> = (0..64)
        .map(|_| {
            Triple::new(
                rng.below(big_entities) as u32,
                rng.below(4) as u32,
                rng.below(big_entities) as u32,
            )
        })
        .collect();
    let big_emb = Embeddings::init(big_entities, 4, dim, &mut rng);
    let big_model = BlmModel::new(classics::complex(), big_emb);
    let big_filter = FilterIndex::build(&big_triples);
    let big_queries = (2 * big_triples.len()) as f64;
    let (big_batched_iters, big_batched) = time_calibrated(|| {
        evaluate_with(KernelPolicy::Exact, &big_model, &big_triples, &big_filter)
    });
    record(
        "rank_100k_d64_batched_gemm",
        big_batched_iters,
        big_batched,
        Some((big_queries / big_batched, "queries/s")),
        Some(backend),
    );
    // Entity-sharded scaling at 2/4/8 threads, each with an explicit
    // scaling row: speedup over the single-thread batched path, and the
    // per-worker efficiency that number implies. The meta's core counts
    // are what make these interpretable — an 8-worker row on a 4-core
    // runner *should* show flat speedup.
    let mut big_sharded_par4_speedup = None;
    for threads in [2usize, 4, 8] {
        let (iters, sharded) = time_calibrated(|| {
            evaluate_parallel_with(
                KernelPolicy::Exact,
                &big_model,
                &big_triples,
                &big_filter,
                threads,
            )
        });
        record(
            &format!("rank_100k_d64_sharded_par{threads}"),
            iters,
            sharded,
            Some((big_queries / sharded, "queries/s")),
            Some(backend),
        );
        let speedup = big_batched / sharded;
        record(
            &format!("rank_100k_d64_scaling_par{threads}"),
            iters,
            sharded,
            Some((speedup, "x vs 1-thread batched")),
            Some(backend),
        );
        println!(
            "{:<42} {speedup:>11.2}x ({:.0}% / worker)",
            format!("100k sharded par{threads} vs single-thread"),
            100.0 * speedup / threads as f64
        );
        if threads == 4 {
            big_sharded_par4_speedup = Some(speedup);
        }
    }
    let big_sharded_par4_speedup = big_sharded_par4_speedup.expect("4-thread case measured");
    assert_eq!(
        evaluate_parallel_with(KernelPolicy::Exact, &big_model, &big_triples, &big_filter, 4),
        evaluate_with(KernelPolicy::Exact, &big_model, &big_triples, &big_filter),
        "sharded parallel ranking diverged from batched at 100k entities"
    );

    // ---- serving facade: one-at-a-time vs 64-query batched dispatch ----
    // The same 10k-entity ranking workload through kg-serve's request-level
    // API. block(1) dispatches every query alone (the per-query baseline an
    // unbatched server would run); block(64) lets the queue accumulate the
    // pending tickets into full GEMM blocks. One worker each, so the gap is
    // pure batching, not parallelism.
    let serve_queries: Vec<(usize, usize, usize)> =
        triples.iter().map(|tr| (tr.h.idx(), tr.r.idx(), tr.t.idx())).collect();
    let engine_1 = KgEngine::with_filter(model.clone(), filter.clone()).threads(1).block(1).build();
    let engine_64 =
        KgEngine::with_filter(model.clone(), filter.clone()).threads(1).block(64).build();
    let serve_unbatched = time_best(3, || {
        // Sequential request-response round trips: nothing to batch.
        serve_queries.iter().map(|&(h, r, t)| engine_1.rank_tail(h, r, t)).sum::<f64>()
    });
    record(
        "serve_rank_10k_d64_batch1",
        3,
        serve_unbatched,
        Some((n_triples as f64 / serve_unbatched, "queries/s")),
        Some(backend),
    );
    let serve_batched = time_best(3, || {
        // Submit every ticket up front; the dispatcher drains the queue in
        // 64-row blocks.
        let tickets: Vec<_> = serve_queries
            .iter()
            .map(|&(h, r, t)| engine_64.submit_rank_tail(h, r, t).expect("admitted"))
            .collect();
        tickets.into_iter().map(|ticket| ticket.wait()).sum::<f64>()
    });
    record(
        "serve_rank_10k_d64_batch64",
        3,
        serve_batched,
        Some((n_triples as f64 / serve_batched, "queries/s")),
        Some(backend),
    );
    let serve_speedup = serve_unbatched / serve_batched;
    println!("{:<42} {serve_speedup:>11.2}x", "batched serving speedup");
    // Batching must never change an answer: submit the whole query set to
    // the batching engine up front (so its dispatcher really cuts
    // multi-query blocks), then compare every rank against one-at-a-time
    // dispatch.
    let batched_ranks: Vec<_> = serve_queries
        .iter()
        .map(|&(h, r, t)| engine_64.submit_rank_tail(h, r, t).expect("admitted"))
        .collect();
    for (ticket, &(h, r, t)) in batched_ranks.into_iter().zip(&serve_queries) {
        assert_eq!(
            ticket.wait(),
            engine_1.rank_tail(h, r, t),
            "served rank diverged between block sizes"
        );
    }

    // ---- mixed-direction serving: blocks cut across both directions ----
    // 50/50 tail-head traffic, arrival-skewed (the tail backlog lands
    // first). Row blocks are cut in arrival order across both directions,
    // so the first head answer waits behind the tail backlog, and the
    // block that straddles the two directions scores both in one pass.
    // Recorded for trend-watching, not gated; answers are pinned by the
    // equivalence suites, and mixing by the Tier-1 contract
    // `served_blocks_score_both_directions_in_one_pass`.
    let mixed_half = 256usize;
    let engine_mixed =
        KgEngine::with_filter(model.clone(), filter.clone()).threads(4).block(64).build();
    let mixed_queries: Vec<(usize, usize, usize)> = serve_queries[..mixed_half].to_vec();
    // (first-head latency, full-drain seconds)
    let run_mixed = || {
        let start = Instant::now();
        let tails: Vec<_> = mixed_queries
            .iter()
            .map(|&(h, r, t)| engine_mixed.submit_rank_tail(h, r, t).expect("admitted"))
            .collect();
        let heads: Vec<_> = mixed_queries
            .iter()
            .map(|&(h, r, t)| engine_mixed.submit_rank_head(h, r, t).expect("admitted"))
            .collect();
        let mut heads = heads.into_iter();
        black_box(heads.next().expect("one head ticket").wait());
        let first_head_latency = start.elapsed().as_secs_f64();
        black_box(heads.chain(tails).map(|ticket| ticket.wait()).sum::<f64>());
        (first_head_latency, start.elapsed().as_secs_f64())
    };
    let mut mixed_first = f64::INFINITY;
    let mut mixed_drain = f64::INFINITY;
    for _ in 0..5 {
        let (first, drain) = run_mixed();
        mixed_first = mixed_first.min(first);
        mixed_drain = mixed_drain.min(drain);
    }
    record("serve_mixed_10k_d64_first_head", 5, mixed_first, None, Some(backend));
    record(
        "serve_mixed_10k_d64_drain",
        5,
        mixed_drain,
        Some(((2 * mixed_half) as f64 / mixed_drain, "queries/s")),
        Some(backend),
    );
    drop(engine_mixed);

    // ---- overload admission: bounded queue + deadline at 2x capacity ----
    // Phase 1 (baseline): the same 10k tail-rank workload through a
    // one-worker engine in a pipelined closed loop — a bounded window of
    // outstanding tickets keeps the crew saturated without ever building
    // a backlog beyond the engine's own pipeline. Its settle-latency
    // histogram is the uncongested distribution. Sustained capacity is
    // taken from the batched serving row above — the closed loop's own
    // wall-clock undercounts it on small runners, where the waiting
    // client contends with the crew for cores, and an undercounted
    // capacity would make "2x" not actually overload.
    let window = 128usize;
    let capacity = n_triples as f64 / serve_batched;
    let engine_base =
        KgEngine::with_filter(model.clone(), filter.clone()).threads(1).block(64).build();
    let mut in_flight: std::collections::VecDeque<kg_serve::RankTicket> =
        std::collections::VecDeque::with_capacity(window);
    for &(h, r, t) in &serve_queries {
        if in_flight.len() == window {
            let front: f64 = in_flight.pop_front().expect("window non-empty").wait();
            black_box(front);
        }
        in_flight.push_back(engine_base.submit_rank_tail(h, r, t).expect("uncongested admit"));
    }
    for ticket in in_flight {
        black_box(ticket.wait());
    }
    let base_p99 = engine_base
        .stats()
        .latency_tails
        .quantile(0.99)
        .expect("uncongested histogram is non-empty");
    record(
        "serve_overload_10k_d64_uncongested_p99",
        1,
        base_p99.as_secs_f64(),
        Some((capacity, "queries/s")),
        Some(backend),
    );
    drop(engine_base);

    // Phase 2 (overload): arrivals paced open-loop at 2x that capacity
    // against an engine with a one-block tail cap and a deadline of a
    // quarter of the uncongested p99 — the pipeline already holds two
    // blocks in flight (that is what the uncongested p99 measures), so
    // the deadline budget must stay well inside it for admitted settle
    // latency to stay flat. Over-capacity submissions shed at the door
    // (no retry — the bench client fails fast); whatever the cap admits
    // but the crew cannot reach in time expires typed. Best-of-3 runs on
    // the gated quantile, the time_best convention.
    //
    // Four passes over the query set, not one: the engine holds three
    // blocks without shedding (64 queued under the cap, one block in
    // flight, one landed and being answered), so against 256 arrivals a 2x
    // backlog only outgrew them in the last 2-4 of the 8 chunks (32-96
    // shed over 40 runs, pacing on schedule) and a run whose pipeline
    // overlapped perfectly shed nothing. 1024 arrivals outrun it by
    // hundreds (416-608 shed over 40 runs) whatever the schedule.
    let deadline = (base_p99 / 4).max(Duration::from_micros(50));
    let overload_arrivals = serve_queries.repeat(4);
    let pace_chunk = 32usize;
    let chunk_every = Duration::from_secs_f64(pace_chunk as f64 / (2.0 * capacity));
    let mut overload_p99 = Duration::MAX;
    let mut overload_secs = f64::INFINITY;
    let mut overload_stats = None;
    for _ in 0..3 {
        let engine_bounded = KgEngine::with_filter(model.clone(), filter.clone())
            .threads(1)
            .block(64)
            .max_queued(RequestClass::Tails, 64)
            .deadline(deadline)
            .build();
        let mut admitted = Vec::with_capacity(overload_arrivals.len());
        let mut shed = 0u64;
        let run_start = Instant::now();
        for (i, arrivals) in overload_arrivals.chunks(pace_chunk).enumerate() {
            for &(h, r, t) in arrivals {
                match engine_bounded.submit_rank_tail(h, r, t) {
                    Ok(ticket) => admitted.push(ticket),
                    Err(SubmitError::Shed { .. }) => shed += 1,
                }
            }
            // Absolute schedule so sleep overshoot never lowers the
            // offered rate below 2x.
            let next = chunk_every * (i as u32 + 1);
            if let Some(nap) = next.checked_sub(run_start.elapsed()) {
                std::thread::sleep(nap);
            }
        }
        let n_admitted = admitted.len() as u64;
        let (mut answered, mut expired) = (0u64, 0u64);
        for ticket in admitted {
            match ticket.wait_result() {
                Ok(rank) => {
                    assert!(rank >= 1.0);
                    answered += 1;
                }
                Err(err) if err.is_expired() => expired += 1,
                Err(err) => panic!("overload run may only shed or expire, got: {err}"),
            }
        }
        let secs = run_start.elapsed().as_secs_f64();
        let stats = engine_bounded.stats();
        // The cap + deadline bound the queue: every admitted ticket
        // settled, the counters account for each exactly once, nothing
        // is left queued.
        assert_eq!(answered + expired, n_admitted, "an admitted ticket did not settle");
        assert_eq!(stats.queries_shed, shed, "shed accounting diverged from the client's count");
        assert_eq!(stats.queries_served + stats.queries_expired, n_admitted);
        assert_eq!(stats.queries_failed, 0, "overload must not fail requests");
        assert_eq!(stats.depth_score + stats.depth_tails + stats.depth_heads, 0);
        assert!(shed > 0, "2x-capacity arrivals against a one-block cap never shed");
        let p99 = stats.latency_tails.quantile(0.99).expect("overload histogram is non-empty");
        if p99 < overload_p99 {
            overload_p99 = p99;
            overload_secs = secs;
            overload_stats = Some((answered, expired, shed));
        }
    }
    let (ov_answered, ov_expired, ov_shed) = overload_stats.expect("three overload runs");
    record(
        "serve_overload_10k_d64",
        3,
        overload_secs,
        Some((ov_answered as f64 / overload_secs, "answered/s")),
        Some(backend),
    );
    record(
        "serve_overload_10k_d64_admitted_p99",
        3,
        overload_p99.as_secs_f64(),
        None,
        Some(backend),
    );
    let overload_p99_ratio = overload_p99.as_secs_f64() / base_p99.as_secs_f64();
    println!(
        "{:<42} {overload_p99_ratio:>11.2}x (answered {ov_answered}, expired {ov_expired}, \
         shed {ov_shed})",
        "overload admitted p99 vs uncongested"
    );

    // ---- raw kernels: 64-query block against the 10k × 64 table ----
    // Dispatched (AVX-512 or AVX2 where detected) vs forced-scalar A/B for each hot
    // kernel. The explicit `*_scalar` entry points measure the fallback
    // without re-launching the process under KG_FORCE_SCALAR; both
    // backends produce bit-identical output, so the rows differ only in
    // time.
    let block = 64usize;
    let mut q = Mat::zeros(block, dim);
    rng.fill_normal(1.0, q.as_mut_slice());
    let mut scores = vec![0.0f32; block * n_entities];
    let kernel_gemv = time_best(4, || {
        for i in 0..block {
            model.emb.ent.gemv(q.row(i), &mut scores[i * n_entities..(i + 1) * n_entities]);
        }
        scores[0]
    });
    record("kernel_64q_gemv_loop", 4, kernel_gemv, None, None);
    // The dispatched kernel against the forced-scalar reference,
    // interleaved.
    let mut scalar_scores = vec![0.0f32; block * n_entities];
    let ((gemm_iters, kernel_gemm), (scalar_iters, kernel_gemm_scalar)) = time_pair(
        || {
            let ent = &model.emb.ent;
            gemm::gemm_nt_with(KernelPolicy::Exact, q.as_slice(), block, dim, ent, &mut scores);
            scores[0]
        },
        || {
            let ent = &model.emb.ent;
            let out = &mut scalar_scores;
            gemm::gemm_nt_rows_scalar(q.as_slice(), block, dim, ent, 0..ent.rows(), out);
            scalar_scores[0]
        },
    );
    record("kernel_64q_gemm_nt", gemm_iters, kernel_gemm, None, Some(backend));
    record("kernel_64q_gemm_nt_scalar", scalar_iters, kernel_gemm_scalar, None, Some("scalar"));
    // One query row against the same table — the shape of every served
    // round trip and one-triple call. Nothing amortises the tile transpose
    // here, so this row is the transpose (and the table's bandwidth).
    let (one_q_iters, kernel_gemm_1q) = time_calibrated(|| {
        gemm::gemm_nt_with(
            KernelPolicy::Exact,
            q.row(0),
            1,
            dim,
            &model.emb.ent,
            &mut scores[..n_entities],
        );
        scores[0]
    });
    record("kernel_1q_gemm_nt", one_q_iters, kernel_gemm_1q, None, Some(backend));
    let gemm_nt_simd_speedup = kernel_gemm_scalar / kernel_gemm;
    println!("{:<42} {gemm_nt_simd_speedup:>11.2}x", "gemm_nt dispatched vs forced scalar");

    // gemm_acc_t over the same block shape (the softmax backward's kernel).
    let coeff: Vec<f32> = scores.clone();
    let mut acc_out = vec![0.0f32; block * dim];
    let kernel_acc = time_best(4, || {
        gemm::gemm_acc_t_with(KernelPolicy::Exact, &coeff, block, &model.emb.ent, &mut acc_out);
        acc_out[0]
    });
    record("kernel_64q_gemm_acc_t", 4, kernel_acc, None, Some(backend));
    let kernel_acc_scalar = time_best(4, || {
        gemm::gemm_acc_t_scalar(&coeff, block, &model.emb.ent, &mut acc_out);
        acc_out[0]
    });
    record("kernel_64q_gemm_acc_t_scalar", 4, kernel_acc_scalar, None, Some("scalar"));

    // The dense entity gradient of one 32-triple block at the *search*
    // shape (700 entities, d = 32, 64 query rows): the rank-64 update in
    // one pass vs the 64 `Mat::ger` calls it replaced in the trainer.
    let (grad_n, grad_dim) = (700usize, 32usize);
    let mut grad_s = vec![0.0f32; block * grad_n];
    rng.fill_normal(1.0 / grad_n as f64, &mut grad_s);
    let mut grad_q = vec![0.0f32; block * grad_dim];
    rng.fill_normal(1.0, &mut grad_q);
    let (mut grad, mut grad_ger) = (Mat::zeros(grad_n, grad_dim), Mat::zeros(grad_n, grad_dim));
    let ((rank_iters, kernel_rank_update), (ger_iters, kernel_ger_loop)) = time_pair(
        || {
            gemm::rank_update_with(
                KernelPolicy::Exact,
                &grad_s,
                grad_n,
                block,
                &grad_q,
                &mut grad,
                0..grad_n,
            );
            grad.get(0, 0)
        },
        || {
            for k in 0..block {
                grad_ger.ger(
                    1.0,
                    &grad_s[k * grad_n..(k + 1) * grad_n],
                    &grad_q[k * grad_dim..(k + 1) * grad_dim],
                );
            }
            grad_ger.get(0, 0)
        },
    );
    record("kernel_700_d32_rank_update", rank_iters, kernel_rank_update, None, Some(backend));
    record("kernel_700_d32_ger_loop", ger_iters, kernel_ger_loop, None, None);
    let rank_update_speedup = kernel_ger_loop / kernel_rank_update;
    println!("{:<42} {rank_update_speedup:>11.2}x", "rank update vs ger loop");

    // count_cmp over one 10k-entity score row (the rank-count sweep).
    let sweep_row = &scores[..n_entities];
    let threshold = sweep_row[n_entities / 2];
    let sweep = time_best(64, || vecops::count_cmp(black_box(sweep_row), black_box(threshold)));
    record("kernel_count_cmp_10k", 64, sweep, None, Some(backend));
    let sweep_scalar =
        time_best(64, || vecops::count_cmp_scalar(black_box(sweep_row), black_box(threshold)));
    record("kernel_count_cmp_10k_scalar", 64, sweep_scalar, None, Some("scalar"));

    // ---- batch adapter overhead: one 64-query block through BatchScorer ----
    let mut scratch = BatchScratch::with_policy(KernelPolicy::Exact);
    let tail_queries: Vec<(usize, usize)> =
        (0..block).map(|i| (i * 131 % n_entities, i % 4)).collect();
    let batch_call = time_best(4, || {
        model.score_tails_batch(&tail_queries, &mut scores, &mut scratch);
        scores[0]
    });
    record("score_tails_batch_64q", 4, batch_call, None, Some(backend));

    // ---- single-triple scoring stays cheap (per-query adapter path) ----
    let mut one = vec![0.0f32; n_entities];
    let single = time_best(16, || {
        model.score_tails(7, 1, &mut one);
        one[0]
    });
    record("score_tails_single_query", 16, single, None, None);

    // ---- training: one multi-class epoch at widths 1, 2 and 4 ----
    // The ranking headline's 10k-entity, d = 64 scenario for the training
    // loop: 512 triples in batches of 256, so an epoch is 16 block steps
    // with two batch flushes. Every width runs the one epoch loop: the
    // `seq` row is the default width-1 loop, and par2/par4 compute each
    // block on a crew opened for the epoch, every width training the
    // width-1 model bit for bit, so those rows measure scheduling plus one
    // crew spawn per epoch. Model (re)init is part of every timed rep on
    // every side, so the comparison stays epoch-for-epoch fair.
    let train_triples: Vec<Triple> = (0..512)
        .map(|_| {
            Triple::new(
                rng.below(n_entities) as u32,
                rng.below(4) as u32,
                rng.below(n_entities) as u32,
            )
        })
        .collect();
    let train_ds = Dataset {
        name: "bench-train-10k".into(),
        n_entities,
        n_relations: 4,
        train: train_triples,
        valid: Vec::new(),
        test: Vec::new(),
    };
    let train_cfg = TrainConfig { dim: 64, epochs: 1, batch_size: 256, ..TrainConfig::default() };
    let train_spec = classics::complex();
    let train_triples_per_iter = train_ds.train.len() as f64;
    let (train_seq_iters, train_seq) =
        time_calibrated(|| Trainer::new(train_cfg).train(&train_spec, &train_ds));
    record(
        "train_10k_d64_epoch_seq",
        train_seq_iters,
        train_seq,
        Some((train_triples_per_iter / train_seq, "triples/s")),
        Some(backend),
    );
    let mut train_par = [0.0f64; 2];
    for (ti, threads) in [2usize, 4].into_iter().enumerate() {
        let trainer = Trainer::new(train_cfg).threads(threads);
        let (iters, secs) = time_calibrated(|| trainer.train(&train_spec, &train_ds));
        record(
            &format!("train_10k_d64_epoch_par{threads}"),
            iters,
            secs,
            Some((train_triples_per_iter / secs, "triples/s")),
            Some(backend),
        );
        train_par[ti] = secs;
    }
    let train_bits = |m: &BlmModel| {
        m.emb.ent.as_slice().iter().chain(m.emb.rel.as_slice()).map(|v| v.to_bits()).collect()
    };
    let train_seq_bits: Vec<u32> =
        train_bits(&Trainer::new(train_cfg).train(&train_spec, &train_ds));
    for threads in [1usize, 2, 4] {
        let crew = Trainer::new(train_cfg).threads(threads).train(&train_spec, &train_ds);
        assert!(
            train_bits(&crew) == train_seq_bits,
            "train crew par{threads} diverged from the sequential reference"
        );
    }
    let train_par4_speedup = train_seq / train_par[1];
    record(
        "train_10k_d64_crew_scaling_par4",
        1,
        train_par[1],
        Some((train_par4_speedup, "x vs sequential")),
        Some(backend),
    );
    println!(
        "{:<42} {train_par4_speedup:>11.2}x ({:.0}% / worker)",
        "train crew par4 vs sequential",
        100.0 * train_par4_speedup / 4.0
    );

    let report = BenchReport {
        meta: BenchMeta {
            kernel_backend: backend.to_string(),
            avx2_detected,
            fma_detected,
            force_scalar_env: simd::force_scalar_requested(),
            logical_cores,
            physical_cores,
        },
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise bench report");
    // Anchor to the workspace root whatever cwd cargo hands the bench.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_microbench.json");
    std::fs::write(path, &json).expect("write BENCH_microbench.json");
    println!("(wrote {path})");

    assert!(speedup >= 2.0, "batched ranking speedup regressed below 2x: {speedup:.2}x");
    // The serving queue must buy back the GEMM batching win: accumulating
    // pending single queries into 64-row blocks has to beat one-at-a-time
    // dispatch by >= 2x (the measured gap tracks the per-query-vs-batched
    // ranking headline minus queue overhead).
    assert!(
        serve_speedup >= 2.0,
        "batched serving throughput regressed below 2x one-at-a-time: {serve_speedup:.2}x"
    );
    // The entity-sharded evaluator must make multi-core ranking actually
    // pay at the cache-hostile table size: 4 workers on the 100k table
    // have to beat the single-thread batched path by >= 2x. The gate only
    // arms when the runner really has >= 4 logical cores — on smaller
    // machines 4 workers time-slice the same silicon, there is no
    // parallelism to buy the speedup with, and the ratio is recorded
    // ungated for trend-watching (the conditional-AVX2 gate precedent).
    if logical_cores >= 4 {
        assert!(
            big_sharded_par4_speedup >= 2.0,
            "sharded 4-thread ranking regressed below 2x single-thread at 100k entities: \
             {big_sharded_par4_speedup:.2}x"
        );
    } else {
        println!(
            "(only {logical_cores} logical cores: 100k par4 speedup \
             {big_sharded_par4_speedup:.2}x recorded, 2x gate needs >= 4)"
        );
    }
    // Bounded admission must keep admitted latency flat under sustained
    // 2x-capacity overload: the cap sheds the excess at the door and the
    // deadline (half the uncongested p99) expires whatever the cap admits
    // but the crew cannot reach in time, so the admitted p99 stays within
    // 2x the uncongested p99 — an unbounded queue would push it toward
    // the full run length instead. The fail-fast and accounting halves of
    // the property (sheds observed, every admitted ticket settled, queues
    // drained) are asserted inside each overload run above.
    assert!(
        overload_p99_ratio <= 2.0,
        "admitted p99 under 2x overload regressed above 2x uncongested: \
         {overload_p99_ratio:.2}x ({overload_p99:?} vs {base_p99:?})"
    );
    // The explicit-SIMD backend has to actually pay for itself: when the
    // dispatcher selected a SIMD backend (AVX2 or AVX-512), the dispatched
    // gemm_nt must beat the
    // forced-scalar reference by >= 1.3x on the headline 64-query kernel
    // (the measured gap is well above the gate; 1.3x catches a dispatch
    // seam that quietly falls back or a SIMD kernel that stops being
    // faster). On scalar-only machines the two rows measure the same
    // kernel and the ratio is recorded ungated for parity tracking.
    if simd::active_backend() != simd::ResolvedKernel::Scalar {
        assert!(
            gemm_nt_simd_speedup >= 1.3,
            "{backend} gemm_nt regressed below 1.3x the scalar reference: \
             {gemm_nt_simd_speedup:.2}x"
        );
    } else {
        println!(
            "(scalar backend active: gemm_nt parity {gemm_nt_simd_speedup:.2}x recorded, no gate)"
        );
    }
    // The register-resident entity gradient must stay what makes a search
    // candidate cheap: when the dispatcher selected a SIMD backend, the
    // rank-64 update at the search shape has to beat the per-row `ger`
    // loop it replaced by >= 2x. The scalar fallback is the same `axpy`
    // steps in another loop order — parity recorded, no gate.
    if simd::active_backend() != simd::ResolvedKernel::Scalar {
        assert!(
            rank_update_speedup >= 2.0,
            "rank update regressed below 2x the ger loop at 700 x 32: {rank_update_speedup:.2}x"
        );
    } else {
        println!(
            "(scalar backend active: rank update vs ger loop {rank_update_speedup:.2}x recorded, \
             no gate)"
        );
    }
    // The training crew must make multi-core epochs actually pay: 4
    // workers on the 10k-entity scenario have to beat the width-1 loop
    // by >= 2x. Core-gated like the ranking scaling gate — below 4
    // logical cores the workers time-slice the same silicon and the ratio
    // is recorded ungated for trend-watching.
    if logical_cores >= 4 {
        assert!(
            train_par4_speedup >= 2.0,
            "4-thread training crew regressed below 2x the sequential trainer: \
             {train_par4_speedup:.2}x"
        );
    } else {
        println!(
            "(only {logical_cores} logical cores: train par4 speedup \
             {train_par4_speedup:.2}x recorded, 2x gate needs >= 4)"
        );
    }
}
