//! The four workloads, one per product path, and what they share: the
//! generated relation mix, the repeated set-up and the result they return.

pub mod rank;
pub mod search;
pub mod serve;
pub mod train;

use crate::json::Json;
use autosf_repro::kg_core::split::SplitSpec;
use autosf_repro::kg_core::Dataset;
use autosf_repro::kg_datagen::KgBuilder;
use std::time::Instant;

/// What one run of a workload returns to `main`.
pub struct Outcome {
    /// Operations the run attempted; every output check counts as one.
    pub attempted: u64,
    /// Operations that failed, plus output checks that did not hold.
    pub failed: u64,
    /// One line per output check that did not hold.
    pub check_failures: Vec<String>,
    /// End-to-end `throughput` (see `spec::END_TO_END` for the definition
    /// on each workload).
    pub throughput: f64,
    /// End-to-end `latency_ms`.
    pub latency_ms: f64,
    pub setup: SetupTimes,
    /// Per-layer metrics, filled on a traced run only.
    pub layers: Vec<(&'static str, f64)>,
    /// Sample counts, spreads and sizes behind the numbers above, for the
    /// printed report and the result file.
    pub detail: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Record an output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }
}

/// Share of `--seconds` for which a traced run repeats the measured phase
/// under spans, after the untraced phase: enough windows for
/// `trace_overhead_share`, and a traced run stays well inside the driver's
/// limit for one run.
pub const TRACED_SHARE: f64 = 0.5;

/// Seconds of the three set-up parts every workload can have.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub datagen_s: f64,
    pub filter_build_s: f64,
    pub model_init_s: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The fastest of `reps` complete set-ups: the end-to-end `setup_s`.
    pub total_s: f64,
    /// The parts of that set-up; what they leave of `total_s` is engine
    /// build and warm-up.
    pub parts: SetupParts,
    pub reps: usize,
}

impl SetupTimes {
    /// The line the set-up child prints for its parent.
    pub fn to_json(self) -> Json {
        Json::obj([
            ("total_s", Json::Num(self.total_s)),
            ("datagen_s", Json::Num(self.parts.datagen_s)),
            ("filter_build_s", Json::Num(self.parts.filter_build_s)),
            ("model_init_s", Json::Num(self.parts.model_init_s)),
            ("reps", Json::Num(self.reps as f64)),
        ])
    }

    pub fn from_json(line: &Json) -> Option<SetupTimes> {
        let field = |key: &str| line.get(key).and_then(Json::as_f64);
        Some(SetupTimes {
            total_s: field("total_s")?,
            parts: SetupParts {
                datagen_s: field("datagen_s")?,
                filter_build_s: field("filter_build_s")?,
                model_init_s: field("model_init_s")?,
            },
            reps: field("reps")? as usize,
        })
    }
}

/// Time `f` into `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Run the whole set-up several times, dropping what it builds: at least
/// five times, and until a second has gone into it (at most 200 times). Reports the fastest, for the reason `stats::best_window` gives.
///
/// `main` runs this in a child process, so that what the repeats leave in
/// the allocator does not count into the workload's `peak_rss_mb`.
pub fn repeat_setup<S>(mut build: impl FnMut(&mut SetupParts) -> S) -> SetupTimes {
    let started = Instant::now();
    let mut best = SetupTimes { total_s: f64::INFINITY, ..Default::default() };
    loop {
        let mut parts = SetupParts::default();
        let t0 = Instant::now();
        drop(build(&mut parts));
        let total_s = t0.elapsed().as_secs_f64();
        best.reps += 1;
        if total_s < best.total_s {
            (best.total_s, best.parts) = (total_s, parts);
        }
        if (best.reps >= 5 && started.elapsed().as_secs_f64() >= 1.0) || best.reps == 200 {
            return best;
        }
    }
}

/// What `main` needs of a workload.
pub struct Entry {
    /// Time the set-up (in a child process).
    pub time_setup: fn(seed: u64) -> SetupTimes,
    /// Set up once, measure for `seconds`, check the outputs and, when the
    /// tracer is on, measure again under spans and probe the layers.
    pub run: fn(
        seed: u64,
        seconds: f64,
        setup: SetupTimes,
        tracer: &mut crate::trace::Tracer,
    ) -> Outcome,
    /// The workload's sizes, for a result's meta.
    pub constants: fn() -> Json,
}

pub fn entry(name: &str) -> Option<Entry> {
    Some(match name {
        "search_greedy" => {
            Entry { time_setup: search::time_setup, run: search::run, constants: search::constants }
        }
        "train_epochs" => {
            Entry { time_setup: train::time_setup, run: train::run, constants: train::constants }
        }
        "rank_full" => {
            Entry { time_setup: rank::time_setup, run: rank::run, constants: rank::constants }
        }
        "serve_mixed" => {
            Entry { time_setup: serve::time_setup, run: serve::run, constants: serve::constants }
        }
        _ => return None,
    })
}

/// The relation mix of the three table-sized workloads: 3 symmetric
/// relations of `sym_n` pairs (about `2·sym_n` triples each), 1
/// anti-symmetric relation and its inverse, and 7 general relations, of
/// `other_n` triples each; 12 relations, split 90 / 5 / 5.
pub fn relation_mix(n_entities: usize, sym_n: usize, other_n: usize, seed: u64) -> Dataset {
    let mut b = KgBuilder::new(n_entities, 8, 8, seed);
    for _ in 0..3 {
        b.add_symmetric(sym_n, 0.97);
    }
    let anti = b.add_anti_symmetric(other_n);
    b.add_inverse_of(anti, 0.97);
    for _ in 0..7 {
        b.add_general(other_n);
    }
    b.build("relation-mix", SplitSpec::default())
}
