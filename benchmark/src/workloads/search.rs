//! `search_greedy`: the paper's product, Alg. 2 end to end on the
//! WN18RR-like preset. Tables are cache-resident, so per-candidate
//! overhead, thread-scope spawns, `enumerate_b4` and the sequential
//! trainer inside `train_many` dominate, not bandwidth.
//!
//! One search is fixed work, about 6.5 s on one thread. The run repeats it
//! while `--seconds` last and reports the fastest repeat, for the reason
//! `stats::best_window` gives; with one seed every repeat must find the
//! same structures, which is one of the output checks.

use super::{repeat_setup, timed, Outcome, SetupParts, SetupTimes};
use crate::host::{self, POLICY};
use crate::json::Json;
use crate::probes;
use crate::trace::Tracer;
use autosf_repro::autosf::greedy::GreedyOutcome;
use autosf_repro::autosf::space::enumerate_b4;
use autosf_repro::autosf::{GreedyConfig, GreedySearch, SearchDriver, SearchTrace};
use autosf_repro::kg_core::{Dataset, FilterIndex};
use autosf_repro::kg_datagen::{preset, Preset, Scale};
use autosf_repro::kg_eval::ranking::evaluate_parallel_with;
use autosf_repro::kg_models::BlockSpec;
use autosf_repro::kg_train::parallel::train_many;
use autosf_repro::kg_train::TrainConfig;
use std::time::Instant;

/// Training epochs per candidate. The Quick experiments train 30 and
/// search for a minute on one thread of the host this was sized on; 2 puts
/// a search at about 6.5 s (2.2 s of it `enumerate_b4`), so that a
/// 20-second run holds three.
pub const EPOCHS: usize = 2;
/// Another search starts while less than this share of `--seconds` has
/// passed (and always a first one).
pub const LAST_START_SHARE: f64 = 0.75;

/// The Quick search constants of `crates/bench/src/ctx.rs`, restated here
/// because `ExpCtx::new` reads the environment and creates directories.
fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        dim: 32,
        epochs: EPOCHS,
        lr: 0.3,
        l2: 1e-5,
        batch_size: 64,
        seed,
        ..Default::default()
    }
}

fn greedy_config(seed: u64) -> GreedyConfig {
    GreedyConfig { b_max: 8, n_candidates: 64, k1: 8, k2: 8, rounds: 2, seed, ..Default::default() }
}

pub fn constants() -> Json {
    let (t, g) = (train_config(0), greedy_config(0));
    Json::obj([
        ("preset", Json::str("Wn18rrLike, Quick")),
        ("epochs", Json::Num(t.epochs as f64)),
        ("last_start_share", Json::Num(LAST_START_SHARE)),
        ("dim", Json::Num(t.dim as f64)),
        ("batch", Json::Num(t.batch_size as f64)),
        ("lr", Json::Num(f64::from(t.lr))),
        ("l2", Json::Num(f64::from(t.l2))),
        ("b_max", Json::Num(g.b_max as f64)),
        ("n_candidates", Json::Num(g.n_candidates as f64)),
        ("k1", Json::Num(g.k1 as f64)),
        ("k2", Json::Num(g.k2 as f64)),
        ("rounds", Json::Num(g.rounds as f64)),
    ])
}

/// One search.
struct Search {
    wall_s: f64,
    outcome: GreedyOutcome,
    trace: SearchTrace,
    models: usize,
}

impl Search {
    /// Seconds to the first evaluated candidate.
    fn first_candidate_s(&self) -> f64 {
        self.trace.records.first().map_or(self.wall_s, |r| r.seconds)
    }
}

/// `SearchDriver::new` to `GreedySearch::run` returning.
fn search(ds: &Dataset, seed: u64) -> Search {
    let t0 = Instant::now();
    let mut driver = SearchDriver::new(ds, train_config(seed), host::threads());
    let outcome = GreedySearch::new(greedy_config(seed)).run(&mut driver);
    let wall_s = t0.elapsed().as_secs_f64();
    Search { wall_s, outcome, models: driver.models_trained(), trace: driver.trace }
}

/// Searches, one after the other while `seconds` last.
fn measure(ds: &Dataset, seed: u64, seconds: f64) -> Vec<Search> {
    let started = Instant::now();
    let mut searches = vec![search(ds, seed)];
    while started.elapsed().as_secs_f64() < LAST_START_SHARE * seconds {
        searches.push(search(ds, seed));
    }
    searches
}

/// Train and rank the searched structures again, batch by batch as the
/// driver did (same specs, same seeds, same thread count), with a span
/// around each layer call; returns (train seconds, eval seconds).
fn replay(ds: &Dataset, seed: u64, found: &SearchTrace, tracer: &mut Tracer) -> (f64, f64) {
    let threads = host::threads();
    let cfg = train_config(seed);
    let mut filter = FilterIndex::build(&ds.train);
    for t in &ds.valid {
        filter.insert(*t);
    }
    let specs: Vec<BlockSpec> = found.records.iter().map(|r| r.spec.clone()).collect();
    // the f4 stage is trained in one batch, every later round in one of k2
    let (f4, later) = specs.split_at(specs.iter().take_while(|s| s.n_blocks() == 4).count());
    let mut done = 0usize;
    tracer.span("replay", |t| {
        for batch in std::iter::once(f4).chain(later.chunks(greedy_config(seed).k2)) {
            let batch_cfg = cfg.with_seed(cfg.seed.wrapping_add(done as u64 * 7919));
            let models =
                t.span("kg-train.train_many", |_| train_many(batch, ds, &batch_cfg, threads));
            for model in &models {
                t.span("kg-eval.evaluate_parallel", |_| {
                    std::hint::black_box(evaluate_parallel_with(
                        POLICY, model, &ds.valid, &filter, threads,
                    ))
                });
            }
            done += batch.len();
        }
    });
    (tracer.total_s("kg-train.train_many"), tracer.total_s("kg-eval.evaluate_parallel"))
}

fn build(seed: u64, parts: &mut SetupParts) -> Dataset {
    timed(&mut parts.datagen_s, || preset(Preset::Wn18rrLike, Scale::Quick, seed))
}

pub fn time_setup(seed: u64) -> SetupTimes {
    repeat_setup(|parts| build(seed, parts))
}

pub fn run(seed: u64, seconds: f64, setup: SetupTimes, trace: &mut Tracer) -> Outcome {
    let ds = build(seed, &mut SetupParts::default());

    let searches = measure(&ds, seed, seconds);
    let fastest = |f: fn(&Search) -> f64| searches.iter().map(f).fold(f64::INFINITY, f64::min);
    let first_candidate_s = fastest(Search::first_candidate_s);
    let base = searches.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).expect("one search");
    let records = &base.trace.records;
    let mut out = Outcome {
        attempted: searches.iter().map(|s| s.models as u64).sum(),
        failed: 0,
        check_failures: Vec::new(),
        throughput: base.models as f64 / base.wall_s,
        latency_ms: 1e3 * first_candidate_s,
        setup,
        layers: Vec::new(),
        detail: vec![
            ("searches", Json::Num(searches.len() as f64)),
            ("search_wall_s", Json::Arr(searches.iter().map(|s| Json::Num(s.wall_s)).collect())),
            (
                "first_candidate_s",
                Json::Arr(searches.iter().map(|s| Json::Num(s.first_candidate_s())).collect()),
            ),
            ("models_trained", Json::Num(base.models as f64)),
            ("best_mrr", Json::Num(base.outcome.best_mrr)),
            ("best_spec", Json::str(base.outcome.best_spec.render())),
            ("epochs_per_candidate", Json::Num(EPOCHS as f64)),
            ("train_triples", Json::Num(ds.train.len() as f64)),
            ("valid_triples", Json::Num(ds.valid.len() as f64)),
        ],
    };
    for s in &searches {
        let records = &s.trace.records;
        let bad =
            records.iter().filter(|r| !(r.mrr.is_finite() && r.mrr > 0.0 && r.mrr <= 1.0)).count();
        out.failed += bad as u64;
        out.check(bad == 0, || format!("{bad} of {} trace MRRs outside (0, 1]", records.len()));
        let max_mrr = records.iter().map(|r| r.mrr).fold(f64::NEG_INFINITY, f64::max);
        out.check(s.outcome.best_mrr == max_mrr, || {
            format!("best_mrr {} != max over the trace {max_mrr}", s.outcome.best_mrr)
        });
        // one seed, one result
        out.check(s.outcome.best_mrr == base.outcome.best_mrr && s.models == base.models, || {
            format!(
                "a repeat found {} over {} models, the fastest {} over {}",
                s.outcome.best_mrr, s.models, base.outcome.best_mrr, base.models
            )
        });
    }

    if trace.enabled() {
        let stage = |f: fn(&autosf_repro::autosf::greedy::StageTiming) -> f64| -> f64 {
            base.outcome.timings.iter().map(f).sum()
        };
        let (filter_s, predictor_s, train_eval_s) =
            (stage(|s| s.filter_secs), stage(|s| s.predictor_secs), stage(|s| s.train_eval_secs));
        let ((train_s, eval_s), fma_peak, b4_s, nt) = trace.span("search_greedy", |t| {
            let replayed = replay(&ds, seed, &base.trace, t);
            let fma_peak = t.span("probe.fma_peak", |_| probes::fma_peak_gflops());
            let b4_s = t.span("autosf.enumerate_b4", |_| {
                let t0 = Instant::now();
                std::hint::black_box(enumerate_b4());
                t0.elapsed().as_secs_f64()
            });
            let table = probes::random_table(ds.n_entities, train_config(seed).dim, seed);
            let nt = t.span("kg-linalg.gemm_nt", |_| probes::gemm_nt(&table, 64, 0.1));
            (replayed, fma_peak, b4_s, nt)
        });
        let target = 0.95 * base.outcome.best_mrr;
        let to_95 = records.iter().find(|r| r.mrr >= target).map_or(base.wall_s, |r| r.seconds);
        out.layers = vec![
            ("kg-linalg.fma_peak_gflops", fma_peak),
            ("kg-linalg.gemm_nt_700_d32_us", 1e6 * nt.secs),
            ("autosf.wall_s", base.wall_s),
            ("autosf.best_mrr", base.outcome.best_mrr),
            ("autosf.filter_s", filter_s),
            ("autosf.predictor_s", predictor_s),
            ("autosf.train_eval_s", train_eval_s),
            ("autosf.b4_enumerate_s", b4_s),
            ("autosf.models_trained", base.models as f64),
            ("autosf.sec_per_model", base.wall_s / base.models as f64),
            ("autosf.to_95pct_best_s", to_95),
            ("autosf.train_s", train_s),
            ("autosf.eval_s", eval_s),
            (
                "autosf.residual_share",
                1.0 - (filter_s + predictor_s + train_s + eval_s) / base.wall_s,
            ),
            // the replay is the traced run of the train + evaluate stage
            ("trace_overhead_share", (train_s + eval_s) / train_eval_s - 1.0),
        ];
    }
    out
}
