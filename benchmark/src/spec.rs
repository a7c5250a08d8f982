//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` at the repo root is `manifest()` printed; edit
//! this file and regenerate it (`... -- manifest > BENCHMARK.json`).

use crate::json::Json;

/// What the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures for. Sized so that the driver's 92 runs, each
/// with its repeated set-up and output checks, and two builds fit its cap
/// (about 24 s a run, 2 300 s in all of 3 420), and so that a run outlasts
/// the slow stretches of a shared host: every statistic is the best of its
/// windows, and ten seconds were too few to hold a clean one every time.
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "search_greedy",
        why: "The paper's product: greedy search on a 700-entity KG. Cache-resident tables, so \
              per-candidate overhead, thread-scope spawns and enumerate_b4 dominate; bypasses crew and kg-serve.",
    },
    Workload {
        name: "train_epochs",
        why: "Crewed full-softmax training, 10k entities, d=64: the only path where gemm_acc_t, softmax, \
              Adagrad and crew barriers do the work. Compute- and sync-bound; kernels write beside reads.",
    },
    Workload {
        name: "rank_full",
        why: "Filtered ranking of valid+test at 100k entities (25.6 MB table streams from memory every \
              block): bandwidth-bound kernels, block engine in bulk mode with every block full.",
    },
    Workload {
        name: "serve_mixed",
        why: "Same kernels and block engine driven online through kg-serve at 10k entities: closed-loop \
              rtt and saturation, open loop at 8000 req/s with under-filled blocks, dispatcher wake-ups.",
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What the metric is on each workload, in `WORKLOADS` order.
    pub on: [&'static str; 4],
}

/// Every workload reports every one of these, which is why they are named
/// for what a caller sees and not for a layer; `on` says what that is on
/// each product path.
///
/// The bounds are the most the driver admits (0.25) for the three timed
/// metrics, because the shared 2-core host this was written on is at some
/// hours far noisier than the sets in the README ("Repeatability") show:
/// there the ten-seed interquartile spread is 2–6 % of the median on three
/// workloads and 6–17 % for `throughput` on `rank_full`; `peak_rss_mb`
/// spreads 3 % at most.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on: [
            "models trained and ranked ÷ seconds of the fastest search (SearchDriver::new to GreedySearch::run returning)",
            "train triples ÷ time of the fastest epoch (EpochInfo.seconds deltas)",
            "queries ÷ time of the fastest 256-triple evaluate_parallel_with call",
            "answered ÷ seconds in the best 0.2 s window of the saturate phases (closed loop, 256 tickets outstanding)",
        ],
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        on: [
            "time to the first evaluated candidate (first SearchRecord.seconds) in the search that reached it soonest",
            "time of the fastest epoch: the interval between two progress callbacks",
            "median one-triple (a tail and a head query) evaluate_parallel_with call in the best window of 10 calls",
            "median round trip in the best window of 200 of the rtt phases (closed loop, one request outstanding)",
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        on: ["VmHWM at exit"; 4],
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: [
            "fastest of repeated set-ups: preset generation",
            "fastest of repeated set-ups: dataset generation",
            "fastest of repeated set-ups: dataset generation, filter build, model init, one-block warm-up",
            "fastest of repeated set-ups: dataset generation, filter build, model init, engine build, 256-query warm-up",
        ],
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move; everywhere
    /// else the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

/// A traced run reports all of these; a metric of a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // the machine's ceilings, measured in the traced run itself
    layer(
        "kg-linalg.triad_gbps",
        "GB/s",
        Higher,
        "ceiling for gemm_nt_100k_bw_share and for latency_ms (one row reads the whole table) @ rank_full",
    ),
    layer("kg-linalg.fma_peak_gflops", "GFLOP/s", Higher, "ceiling for every *_gflops"),
    // kernels at the workloads' shapes
    layer("kg-linalg.gemm_nt_100k_gflops", "GFLOP/s", Higher, "throughput @ rank_full"),
    layer("kg-linalg.gemm_nt_100k_bw_share", "share", Higher, "throughput @ rank_full"),
    layer("kg-linalg.count_cmp_100k_gbps", "GB/s", Higher, "throughput @ rank_full"),
    layer(
        "kg-linalg.gemm_nt_10k_gflops",
        "GFLOP/s",
        Higher,
        "throughput @ serve_mixed, train_epochs",
    ),
    layer("kg-linalg.gemm_nt_10k_1row_us", "us", Lower, "latency_ms @ serve_mixed"),
    layer("kg-linalg.gemm_acc_t_10k_gflops", "GFLOP/s", Higher, "throughput @ train_epochs only"),
    layer("kg-linalg.gemm_nt_700_d32_us", "us", Lower, "throughput @ search_greedy"),
    // scorer seam
    layer("kg-models.score_tails_batch_100k_ms", "ms", Lower, "throughput @ rank_full"),
    layer("kg-models.scorer_overhead_share", "share", Lower, "throughput @ rank_full"),
    // block engine, offline
    layer("kg-eval.seq_pass_s", "s", Lower, "throughput @ rank_full (single-thread baseline)"),
    layer("kg-eval.par_efficiency", "share", Higher, "throughput @ rank_full"),
    layer("kg-eval.block_ms", "ms", Lower, "throughput @ rank_full"),
    layer("kg-eval.engine_overhead_share", "share", Lower, "throughput @ rank_full, serve_mixed"),
    layer("kg-eval.reference_qps", "1/s", Higher, "none (the per-query reference the checks use)"),
    // trainer
    layer("kg-train.seq_epoch_s", "s", Lower, "throughput @ train_epochs (single-thread baseline)"),
    layer("kg-train.crew1_epoch_s", "s", Lower, "throughput @ train_epochs"),
    layer("kg-train.crew_epoch_s", "s", Lower, "throughput @ train_epochs"),
    layer("kg-train.crew_overhead_share", "share", Lower, "throughput @ train_epochs"),
    layer("kg-train.par_efficiency", "share", Higher, "throughput @ train_epochs"),
    layer("kg-train.step_ms", "ms", Lower, "throughput @ train_epochs"),
    layer(
        "kg-train.kernel_share",
        "share",
        Higher,
        "caps what a kernel change buys @ train_epochs",
    ),
    layer("kg-train.final_loss", "nats", Lower, "quality floor @ train_epochs"),
    // search
    layer("autosf.wall_s", "s", Lower, "throughput @ search_greedy"),
    layer("autosf.best_mrr", "mrr", Higher, "quality floor @ search_greedy"),
    layer("autosf.filter_s", "s", Lower, "throughput, latency_ms @ search_greedy"),
    layer("autosf.predictor_s", "s", Lower, "throughput @ search_greedy"),
    layer("autosf.train_eval_s", "s", Lower, "throughput @ search_greedy"),
    layer("autosf.b4_enumerate_s", "s", Lower, "latency_ms @ search_greedy"),
    layer("autosf.models_trained", "count", Lower, "throughput @ search_greedy"),
    layer("autosf.sec_per_model", "s", Lower, "throughput @ search_greedy"),
    layer("autosf.to_95pct_best_s", "s", Lower, "none yet (any-time curve, Fig. 6-9)"),
    layer("autosf.train_s", "s", Lower, "throughput @ search_greedy"),
    layer(
        "autosf.eval_s",
        "s",
        Lower,
        "throughput @ search_greedy (all a ranking change may move)",
    ),
    layer("autosf.residual_share", "share", Lower, "throughput @ search_greedy"),
    // serving
    layer("kg-serve.open_p50_ms", "ms", Lower, "latency under load @ serve_mixed"),
    layer("kg-serve.open_p99_ms", "ms", Lower, "latency under load @ serve_mixed"),
    layer("kg-serve.open_p999_ms", "ms", Lower, "latency under load @ serve_mixed"),
    layer("kg-serve.generator_late_ms", "ms", Lower, "none (how far to trust open_*)"),
    layer(
        "kg-serve.mean_block_fill",
        "count",
        Higher,
        "throughput up, open_p50_ms up @ serve_mixed",
    ),
    layer("kg-serve.saturate_block_fill", "count", Higher, "throughput @ serve_mixed"),
    layer("kg-serve.blocks_cut", "count", Lower, "throughput @ serve_mixed"),
    layer("kg-serve.overlapped_share", "share", Higher, "throughput @ serve_mixed"),
    layer("kg-serve.lead_idle_per_block", "count", Higher, "throughput @ serve_mixed"),
    layer("kg-serve.crew_idle_per_block", "count", Lower, "throughput @ serve_mixed"),
    layer("kg-serve.submit_us", "us", Lower, "throughput, latency_ms @ serve_mixed"),
    layer("kg-serve.facade_share", "share", Higher, "throughput @ serve_mixed"),
    // set-up and tracing, every workload
    layer("setup.datagen_s", "s", Lower, "setup_s"),
    layer("setup.filter_build_s", "s", Lower, "setup_s"),
    layer("setup.model_init_s", "s", Lower, "setup_s"),
    layer("trace_overhead_share", "share", Lower, "none (traced ÷ untraced − 1)"),
];

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn manifest_meets_the_drivers_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.chars().count() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(manifest().render_pretty().len() <= 64 << 10);
    }

    #[test]
    fn checked_in_manifest_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(on_disk, manifest(), "regenerate BENCHMARK.json with the manifest subcommand");
    }
}
