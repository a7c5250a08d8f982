//! Model images: train a model, write it to a memory-mappable image,
//! map it back with zero copies, and serve a query from the mapping.
//!
//! ```sh
//! cargo run --release --example image
//! ```

use kg_datagen::{preset, Preset, Scale};
use kg_eval::two_stage::{two_stage_top_k_tails, TwoStageConfig};
use kg_eval::{evaluate_two_stage, quantise_scorer};
use kg_models::{blm::classics, write_model_image, ImageBlmModel, LinkPredictor};
use kg_serve::KgEngine;
use kg_train::{TrainConfig, Trainer};

fn main() {
    // 1. A reproducible tiny KG and a trained SimplE-structured model.
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 42);
    let cfg = TrainConfig { dim: 32, epochs: 25, lr: 0.3, l2: 1e-4, ..Default::default() };
    println!("training SimplE: d={} epochs={} lr={}", cfg.dim, cfg.epochs, cfg.lr);
    let model = Trainer::new(cfg).train(&classics::simple(), &ds);

    // 2. Snapshot it as a model image: one file holding the f32 tables,
    //    the i8 quantised mirror, and the scoring structure — checksummed,
    //    64-byte aligned, ready to map.
    let path = std::env::temp_dir().join(format!("autosf-example-{}.kgt", std::process::id()));
    write_model_image(&model, &path).expect("write image");
    let file_len = std::fs::metadata(&path).expect("stat").len();
    println!("\nimage written: {} ({file_len} bytes)", path.display());

    // 3. Map it back. `open` validates the header only — O(header), no
    //    table reads — so a multi-GiB model is serving-ready instantly.
    let mapped = ImageBlmModel::open(&path).expect("map image");
    mapped.image().verify().expect("payload checksum");
    println!(
        "mapped: {} entities × d={}, spec {}",
        mapped.n_entities(),
        mapped.dim(),
        mapped.spec().formula()
    );

    // 4. Serve straight from the mapping: the engine's answers are
    //    bit-identical to serving the in-memory model, because the image
    //    scorer reuses the same kernels over the mapped segments.
    let engine = KgEngine::builder(mapped, &ds).threads(4).build();
    let tr = ds.test[0];
    println!(
        "\n(h={}, r={}, t={}): score {:.4}, filtered tail rank {}",
        tr.h.idx(),
        tr.r.idx(),
        tr.t.idx(),
        engine.score(tr.h.idx(), tr.r.idx(), tr.t.idx()),
        engine.rank_tail(tr.h.idx(), tr.r.idx(), tr.t.idx()),
    );
    println!(
        "top-5 tails for (h={}, r={}): {:?}",
        tr.h.idx(),
        tr.r.idx(),
        engine.top_k_tails(tr.h.idx(), tr.r.idx(), 5)
    );

    // 5. The image also carries the quantised coarse tier, so two-stage
    //    ranking runs on it zero-copy: score everything in i8, keep top-C
    //    candidates, rescore the survivors with the exact f32 kernels.
    let mapped = ImageBlmModel::open(&path).expect("map image again");
    let filter = kg_core::FilterIndex::from_dataset(&ds);
    let cfg = TwoStageConfig::new(64).with_threads(4);
    let two = evaluate_two_stage(&mapped, mapped.quant(), &ds.test, &filter, cfg);
    println!(
        "\ntwo-stage @C=64 over {} test queries: MRR {:.3}, {} of {} answers certified exact",
        two.metrics.n_queries, two.metrics.mrr, two.certified, two.metrics.n_queries,
    );
    let top = two_stage_top_k_tails(&mapped, mapped.quant(), tr.h.idx(), tr.r.idx(), 5, 64);
    println!(
        "two-stage top-5 tails (certified themselves exact: {}): {:?}",
        top.certified, top.entries
    );

    // The same coarse tier built from the in-memory model gives the same
    // machinery to models that never touched disk.
    let _owned_tier = quantise_scorer(&mapped);

    std::fs::remove_file(&path).ok();
}
