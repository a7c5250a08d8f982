//! `train_epochs`: full-softmax training of one ComplEx model through the
//! crewed trainer. The only workload where `gemm_acc_t`, the softmax,
//! Adagrad and the crew's barriers do the work; the 2.5 MB entity table
//! stays in cache, so it is bound by compute and synchronisation.

use super::{repeat_setup, timed, Outcome, SetupParts, SetupTimes, TRACED_SHARE};
use crate::host::{self, POLICY};
use crate::json::Json;
use crate::probes;
use crate::stats::{best_window, median};
use crate::trace::Tracer;
use autosf_repro::kg_core::Dataset;
use autosf_repro::kg_models::{classics, BlmModel};
use autosf_repro::kg_train::loss::MULTICLASS_BLOCK;
use autosf_repro::kg_train::{ControlFlow, EpochInfo, TrainConfig, Trainer};

pub const N_ENTITIES: usize = 10_000;
pub const DIM: usize = 64;
pub const BATCH: usize = 256;
/// Symmetric pairs per symmetric relation; triples per other relation.
/// A ninth of the issue's 1 000 / 2 000, so that an epoch, the only unit
/// the trainer's callback lets a caller time, lasts about two thirds of a
/// second on two threads (1.15 s on one) and a run holds many of them; the
/// table, the batch and so every kernel call keep their shape.
pub const SYM_N: usize = 110;
pub const OTHER_N: usize = 220;
/// Training stops at the first epoch boundary after `--seconds`, but not
/// before this many epochs.
pub const MIN_EPOCHS: usize = 3;
/// Seconds each of the sequential loop, crew(1) and crew(`par_threads`)
/// train for in a traced run.
pub const SCALING_S: f64 = 4.0;
/// Train triples of the crew(n) = crew(1) byte-identity check (one epoch).
pub const IDENTITY_TRIPLES: usize = 2048;

pub fn constants() -> Json {
    Json::obj([
        ("n_entities", Json::Num(N_ENTITIES as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("batch", Json::Num(BATCH as f64)),
        ("sym_pairs_per_relation", Json::Num(SYM_N as f64)),
        ("triples_per_other_relation", Json::Num(OTHER_N as f64)),
        ("min_epochs", Json::Num(MIN_EPOCHS as f64)),
        ("identity_check_triples", Json::Num(IDENTITY_TRIPLES as f64)),
        ("scaling_seconds", Json::Num(SCALING_S)),
        ("spec", Json::str("ComplEx")),
        ("lr", Json::Num(f64::from(config(0, 1).lr))),
        ("l2", Json::Num(f64::from(config(0, 1).l2))),
    ])
}

fn config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig { dim: DIM, batch_size: BATCH, epochs, seed, ..Default::default() }
}

struct Measured {
    /// (mean loss, seconds since training started) per finished epoch.
    epochs: Vec<(f32, f64)>,
}

impl Measured {
    /// Seconds of each epoch.
    fn epoch_secs(&self) -> Vec<f64> {
        let ends = self.epochs.iter().map(|e| e.1);
        std::iter::once(0.0).chain(ends.clone()).zip(ends).map(|(start, end)| end - start).collect()
    }

    /// Seconds of the fastest epoch, and the share of epochs more than
    /// 10 % slower.
    fn epoch_s(&self) -> (f64, f64) {
        best_window(&self.epoch_secs(), 1, true)
    }
}

/// The sequential trainer; `.threads(n)` makes it a crew of `n`.
fn trainer(seed: u64) -> Trainer {
    Trainer::new(config(seed, usize::MAX)).policy(POLICY)
}

/// Train through `trainer` until `seconds` have passed.
fn measure(ds: &Dataset, trainer: &Trainer, seconds: f64, tracer: &mut Tracer) -> Measured {
    let mut epochs = Vec::new();
    tracer.span("kg-train.Trainer.train", |_| {
        trainer.train_with_callback(&classics::complex(), ds, |_: &BlmModel, info: EpochInfo| {
            epochs.push((info.loss, info.seconds));
            if epochs.len() >= MIN_EPOCHS && info.seconds >= seconds {
                ControlFlow::Stop
            } else {
                ControlFlow::Continue
            }
        })
    });
    Measured { epochs }
}

fn same_bytes(a: &BlmModel, b: &BlmModel) -> bool {
    let bits = |m: &BlmModel| -> Vec<u32> {
        let emb = &m.emb;
        emb.ent.as_slice().iter().chain(emb.rel.as_slice()).map(|x| x.to_bits()).collect()
    };
    bits(a) == bits(b)
}

/// Model and optimiser state are created inside `Trainer::train`, so they
/// are part of the first epoch; the set-up is the dataset.
fn build(seed: u64, parts: &mut SetupParts) -> Dataset {
    timed(&mut parts.datagen_s, || super::relation_mix(N_ENTITIES, SYM_N, OTHER_N, seed))
}

pub fn time_setup(seed: u64) -> SetupTimes {
    repeat_setup(|parts| build(seed, parts))
}

pub fn run(seed: u64, seconds: f64, setup: SetupTimes, trace: &mut Tracer) -> Outcome {
    let (threads, par_threads) = (host::threads(), host::par_threads());
    let ds = build(seed, &mut SetupParts::default());
    let n_train = ds.train.len();

    let crew = trainer(seed).threads(threads);
    let base = measure(&ds, &crew, seconds, &mut Tracer::new(false));
    let losses: Vec<f32> = base.epochs.iter().map(|e| e.0).collect();
    let (epoch_s, contended) = base.epoch_s();
    let mut out = Outcome {
        attempted: (n_train * base.epochs.len()) as u64,
        failed: 0,
        check_failures: Vec::new(),
        throughput: n_train as f64 / epoch_s,
        latency_ms: 1e3 * epoch_s,
        setup,
        layers: Vec::new(),
        detail: vec![
            ("train_triples", Json::Num(n_train as f64)),
            ("epochs", Json::Num(base.epochs.len() as f64)),
            ("median_epoch_s", Json::Num(median(&mut base.epoch_secs()))),
            ("first_epoch_s", Json::Num(base.epochs[0].1)),
            ("contended_epoch_share", Json::Num(contended)),
            ("first_loss", Json::Num(f64::from(losses[0]))),
            ("last_loss", Json::Num(f64::from(losses[losses.len() - 1]))),
        ],
    };
    out.check(losses.iter().all(|l| l.is_finite()), || format!("non-finite loss in {losses:?}"));
    // strictly down while the loss is far from its floor, and lower at the
    // end than at the start however long the run
    let early = &losses[..MIN_EPOCHS];
    out.check(
        early.windows(2).all(|w| w[1] < w[0]) && losses[losses.len() - 1] < losses[0],
        || format!("loss not decreasing: {losses:?}"),
    );

    // Output check: the crew's result does not depend on its size.
    let head = Dataset::with_vocab(
        "identity-check",
        ds.n_entities,
        ds.n_relations,
        ds.train[..IDENTITY_TRIPLES.min(n_train)].to_vec(),
        Vec::new(),
        Vec::new(),
    );
    let one_epoch = |n: usize| {
        Trainer::new(config(seed, 1)).threads(n).policy(POLICY).train(&classics::complex(), &head)
    };
    let wide = host::on_all_cores(|| one_epoch(par_threads));
    out.check(same_bytes(&wide, &one_epoch(1)), || {
        format!("1-epoch crew({par_threads}) model differs from crew(1)")
    });

    if trace.enabled() {
        let traced_s = TRACED_SHARE * seconds;
        let mut traced_epoch_s = 0.0;
        let (fma_peak, seq_s, crew1_s, crew_s, nt, acc) = trace.span("train_epochs", |t| {
            traced_epoch_s = t.span("measure", |t| measure(&ds, &crew, traced_s, t)).epoch_s().0;
            let fma_peak = t.span("probe.fma_peak", |_| probes::fma_peak_gflops());
            // fastest epoch of the plain sequential loop (the single-thread
            // baseline), of the crew alone and of the crew at full width
            let mut fastest = |trainer: Trainer| measure(&ds, &trainer, SCALING_S, t).epoch_s().0;
            let seq_s = fastest(trainer(seed));
            let crew1_s = fastest(trainer(seed).threads(1));
            let crew_s = host::on_all_cores(|| fastest(trainer(seed).threads(par_threads)));
            let table = probes::random_table(N_ENTITIES, DIM, seed);
            let rows = 2 * MULTICLASS_BLOCK;
            let nt = t.span("kg-linalg.gemm_nt", |_| probes::gemm_nt(&table, rows, 0.3));
            let acc = t.span("kg-linalg.gemm_acc_t", |_| probes::gemm_acc_t(&table, rows, 0.3));
            (fma_peak, seq_s, crew1_s, crew_s, nt, acc)
        });
        let steps = n_train.div_ceil(BATCH) as f64;
        // every block of MULTICLASS_BLOCK triples is one 2·block-row
        // gemm_nt (both directions at once) and one gemm_acc_t
        let blocks: usize = (0..n_train)
            .step_by(BATCH)
            .map(|at| BATCH.min(n_train - at).div_ceil(MULTICLASS_BLOCK))
            .sum();
        out.layers = vec![
            ("kg-linalg.fma_peak_gflops", fma_peak),
            ("kg-linalg.gemm_nt_10k_gflops", nt.gflops),
            ("kg-linalg.gemm_acc_t_10k_gflops", acc.1),
            ("kg-train.seq_epoch_s", seq_s),
            ("kg-train.crew1_epoch_s", crew1_s),
            ("kg-train.crew_epoch_s", crew_s),
            ("kg-train.crew_overhead_share", crew1_s / seq_s - 1.0),
            ("kg-train.par_efficiency", crew1_s / (par_threads as f64 * crew_s)),
            ("kg-train.step_ms", 1e3 * epoch_s / steps),
            ("kg-train.kernel_share", blocks as f64 * (nt.secs + acc.0) / seq_s),
            ("kg-train.final_loss", f64::from(losses[MIN_EPOCHS - 1])),
            ("trace_overhead_share", traced_epoch_s / epoch_s - 1.0),
        ];
        out.detail.push(("par_threads", Json::Num(par_threads as f64)));
    }
    out
}
