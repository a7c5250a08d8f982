//! Model images: train a model, write it to a memory-mappable image,
//! map it back with zero copies, and serve a query from the mapping.
//!
//! ```sh
//! cargo run --release --example image
//! ```

use kg_datagen::{preset, Preset, Scale};
use kg_models::{blm::classics, write_model_image, ImageBlmModel, LinkPredictor};
use kg_serve::KgEngine;
use kg_train::{TrainConfig, Trainer};

fn main() {
    // 1. A reproducible tiny KG and a trained SimplE-structured model.
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 42);
    let cfg = TrainConfig { dim: 32, epochs: 25, lr: 0.3, l2: 1e-4, ..Default::default() };
    println!("training SimplE: d={} epochs={} lr={}", cfg.dim, cfg.epochs, cfg.lr);
    let model = Trainer::new(cfg).train(&classics::simple(), &ds);

    // 2. Snapshot it as a model image: one file holding the f32 tables
    //    and the scoring structure — checksummed, 64-byte aligned, ready
    //    to map.
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

    std::fs::remove_file(&path).ok();
}
