//! Case study (after Sec. V-B2): break link-prediction quality down by
//! relation pattern to see *why* a scoring function wins — DistMult's
//! always-symmetric g(r) is fine for symmetric relations but gives away
//! ranks on anti-symmetric ones, which ComplEx handles.
//!
//! ```sh
//! cargo run --release --example case_study
//! ```

use kg_core::reltype::{RelationKind, RelationProfile};
use kg_core::{FilterIndex, RelationId};
use kg_datagen::{preset, Preset, Scale};
use kg_eval::ranking::evaluate_per_relation_with;
use kg_linalg::KernelPolicy;
use kg_models::blm::classics;
use kg_train::{TrainConfig, Trainer};

fn main() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 9);
    let profile = RelationProfile::classify(&ds.all_triples(), ds.n_relations);
    let filter = FilterIndex::from_dataset(&ds);
    let cfg = TrainConfig {
        dim: 32,
        epochs: 40,
        lr: 0.3,
        l2: 1e-5,
        batch_size: 32,
        ..Default::default()
    };

    println!("dataset: {} — per-relation test MRR by model\n", ds.name);
    println!("{:<6} {:<15} {:>9} {:>9} {:>8}", "rel", "pattern", "DistMult", "ComplEx", "#queries");

    let dm = Trainer::new(cfg).train(&classics::distmult(), &ds);
    let cx = Trainer::new(cfg).train(&classics::complex(), &ds);
    let policy = KernelPolicy::default_from_env();
    let dm_per = evaluate_per_relation_with(policy, &dm, &ds.test, &filter, ds.n_relations);
    let cx_per = evaluate_per_relation_with(policy, &cx, &ds.test, &filter, ds.n_relations);

    let mut by_kind: std::collections::BTreeMap<&str, (f64, f64, usize)> = Default::default();
    for r in 0..ds.n_relations {
        let kind = match profile.kind(RelationId(r as u32)) {
            RelationKind::Symmetric => "symmetric",
            RelationKind::AntiSymmetric => "anti-symmetric",
            RelationKind::Inverse => "inverse",
            RelationKind::General => "general",
        };
        let (d, c) = (&dm_per[r], &cx_per[r]);
        if d.n_queries > 0 {
            println!("r{:<5} {:<15} {:>9.3} {:>9.3} {:>8}", r, kind, d.mrr, c.mrr, d.n_queries);
            let e = by_kind.entry(kind).or_insert((0.0, 0.0, 0));
            e.0 += d.mrr * d.n_queries as f64;
            e.1 += c.mrr * c.n_queries as f64;
            e.2 += d.n_queries;
        }
    }

    println!("\naggregate by pattern:");
    println!("{:<15} {:>9} {:>9}", "pattern", "DistMult", "ComplEx");
    for (kind, (d, c, n)) in by_kind {
        println!("{:<15} {:>9.3} {:>9.3}", kind, d / n as f64, c / n as f64);
    }
    println!(
        "\nexpected shape: comparable on symmetric relations, ComplEx ahead on\n\
         anti-symmetric ones (Tab. I / Proposition 1)."
    );
}
