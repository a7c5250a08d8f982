//! The semantic claims behind Tab. I / Tab. II, verified end to end on
//! generated data: which structures can model which relation patterns.

use kg_core::{Dataset, FilterIndex, Triple};
use kg_datagen::KgBuilder;
use kg_eval::ranking::evaluate_parallel_with;
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_train::{TrainConfig, Trainer};

fn cfg() -> TrainConfig {
    TrainConfig { dim: 16, epochs: 15, lr: 0.3, l2: 1e-4, batch_size: 256, ..Default::default() }
}

fn metrics_of(spec: &kg_models::BlockSpec, ds: &Dataset) -> kg_eval::RankMetrics {
    let model = Trainer::new(cfg()).train(spec, ds);
    let filter = FilterIndex::from_dataset(ds);
    evaluate_parallel_with(KernelPolicy::default_from_env(), &model, &ds.test, &filter, 4)
}

fn mrr_of(spec: &kg_models::BlockSpec, ds: &Dataset) -> f64 {
    metrics_of(spec, ds).mrr
}

/// Anti-symmetric (strictly directed) relations punish DistMult exactly as
/// Tab. I predicts: because `f(h, r, t) = f(t, r, h)` for DistMult, every
/// trained edge makes its reverse score equally high, so on a directed ring
/// the true successor ties with the predecessor — Hits@1 collapses — while
/// ComplEx learns the direction.
#[test]
fn anti_symmetric_kg_punishes_distmult() {
    // two directed rings sharing entities, 20% of edges held out
    let mut train = Vec::new();
    let mut test = Vec::new();
    let n = 60u32;
    for r in 0..2u32 {
        let stride = 1 + r; // ring and double-stride ring
        for i in 0..n {
            let tr = Triple::new(i, r, (i + stride) % n);
            if (i + r) % 5 == 0 {
                test.push(tr);
            } else {
                train.push(tr);
            }
        }
    }
    let ds = Dataset::new("rings", train, vec![], test);
    let long_cfg = TrainConfig { epochs: 60, ..cfg() };
    let run = |spec: &kg_models::BlockSpec| {
        let model = kg_train::Trainer::new(long_cfg).train(spec, &ds);
        let filter = FilterIndex::from_dataset(&ds);
        evaluate_parallel_with(KernelPolicy::default_from_env(), &model, &ds.test, &filter, 4)
    };
    let dm = run(&classics::distmult());
    let cx = run(&classics::complex());
    assert!(
        cx.hits1 > dm.hits1 + 0.1,
        "ComplEx should dominate Hits@1 on directed data: DistMult {:.3} ComplEx {:.3}",
        dm.hits1,
        cx.hits1
    );
    assert!(cx.mrr > dm.mrr, "ComplEx MRR {:.3} vs DistMult {:.3}", cx.mrr, dm.mrr);
}

/// A purely symmetric KG: DistMult's inductive bias (g(r) always
/// symmetric) is exactly right, so it must be competitive there.
#[test]
fn symmetric_kg_suits_distmult() {
    let mut b = KgBuilder::new(120, 6, 4, 22);
    for _ in 0..4 {
        b.add_symmetric(120, 1.0);
    }
    let ds = b.build(
        "symmetric-world",
        kg_core::split::SplitSpec { valid_fraction: 0.1, test_fraction: 0.1 },
    );
    let dm = mrr_of(&classics::distmult(), &ds);
    let cx = mrr_of(&classics::complex(), &ds);
    assert!(
        dm > 0.8 * cx,
        "DistMult should be competitive on symmetric data: {dm:.3} vs ComplEx {cx:.3}"
    );
    assert!(dm > 0.3, "DistMult should learn symmetric data well: {dm:.3}");
}

/// Symmetric test edges are recoverable *only* through the symmetry
/// pattern: with the mirror of a test edge in train, a symmetric-capable
/// model ranks the answer near the top.
#[test]
fn symmetry_generalises_to_held_out_mirrors() {
    // train contains (a, r, b) but not (b, r, a); test asks for the mirror
    let mut train = Vec::new();
    let mut test = Vec::new();
    for i in 0..40u32 {
        train.push(Triple::new(2 * i, 0, 2 * i + 1));
        if i % 4 == 0 {
            test.push(Triple::new(2 * i + 1, 0, 2 * i));
        } else {
            train.push(Triple::new(2 * i + 1, 0, 2 * i));
        }
    }
    let ds = Dataset::new("mirror", train, vec![], test);
    let mrr = mrr_of(&classics::distmult(), &ds);
    assert!(mrr > 0.5, "mirrored edges should be easy for DistMult: {mrr:.3}");
}
