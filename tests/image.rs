//! Model-image round trip (ISSUE satellite): a trained model survives
//! serde-JSON → image writer → memory-mapped reader with bit-identical
//! embeddings and scores, malformed files are rejected with typed errors
//! on the caller's thread (no panics, no worker involvement), and a
//! mapped image serves end to end.

use kg_datagen::{preset, Preset, Scale};
use kg_models::{model_image_bytes, write_model_image, BlmModel, ImageBlmModel, LinkPredictor};
use kg_serve::KgEngine;
use kg_table::{Image, ImageError};
use kg_train::{TrainConfig, Trainer};

fn trained_model() -> (BlmModel, kg_core::Dataset) {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 61);
    let cfg = TrainConfig { dim: 16, epochs: 4, ..Default::default() };
    (Trainer::new(cfg).train(&kg_models::blm::classics::complex(), &ds), ds)
}

#[test]
fn serialised_model_round_trips_through_the_image_bitwise() {
    let (model, _) = trained_model();
    // Leg 1: the existing serde-JSON model serialisation.
    let text = serde_json::to_string(&model).expect("serialise model");
    let reloaded: BlmModel = serde_json::from_str(&text).expect("deserialise model");
    // Leg 2: the reloaded model through the image writer to disk, then
    // memory-mapped back.
    let path = std::env::temp_dir().join(format!("autosf-image-{}.kgt", std::process::id()));
    write_model_image(&reloaded, &path).expect("write image");
    let mapped = ImageBlmModel::open(&path).expect("map image");
    mapped.image().verify().expect("payload checksum");

    // Embeddings are bit-identical through both legs.
    assert_eq!(model.emb.ent.as_slice(), mapped.ent());
    assert_eq!(model.emb.rel.as_slice(), mapped.rel());
    assert_eq!(&model.spec, mapped.spec());

    // And so is scoring.
    let n = model.n_entities();
    let mut a = vec![0.0f32; n];
    let mut b = vec![0.0f32; n];
    for (h, r) in [(0usize, 0usize), (7, 1), (19, 2)] {
        model.score_tails(h, r, &mut a);
        mapped.score_tails(h, r, &mut b);
        assert_eq!(
            a.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        );
    }

    // Leg 3: a full-copy model rebuilt from the image equals the source.
    let copied = BlmModel::from_image(mapped.image()).expect("copy out of image");
    assert_eq!(copied.emb.ent.as_slice(), model.emb.ent.as_slice());
    assert_eq!(copied.spec, model.spec);

    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_images_are_rejected_with_typed_errors() {
    let (model, _) = trained_model();
    let bytes = model_image_bytes(&model).expect("image build");

    // Corrupted magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(Image::from_bytes(&bad), Err(ImageError::BadMagic)));

    // Corrupted header (directory byte): header checksum catches it.
    let mut bad = bytes.clone();
    bad[30] ^= 0x01;
    assert!(matches!(Image::from_bytes(&bad), Err(ImageError::HeaderChecksum)));

    // Truncated file: a segment's extent no longer fits.
    let truncated = &bytes[..bytes.len() - 64];
    assert!(matches!(
        Image::from_bytes(truncated),
        Err(ImageError::Truncated { .. }) | Err(ImageError::TooSmall { .. })
    ));

    // Flipped payload byte: open succeeds (header-only validation, the
    // zero-copy contract), the opt-in full verify catches it.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    let img = Image::from_bytes(&bad).expect("header still valid");
    assert!(matches!(img.verify(), Err(ImageError::PayloadChecksum)));

    // A structurally valid image that is not a model: schema error from
    // the model reader, not a panic.
    let empty = kg_table::ImageWriter::new().to_bytes();
    let img = Image::from_bytes(&empty).expect("valid container");
    assert!(matches!(ImageBlmModel::new(img), Err(ImageError::MissingSegment { .. })));
}

#[test]
fn mapped_image_serves_end_to_end() {
    let (model, ds) = trained_model();
    let path = std::env::temp_dir().join(format!("autosf-image-serve-{}.kgt", std::process::id()));
    write_model_image(&model, &path).expect("write image");
    let mapped = ImageBlmModel::open(&path).expect("map image");

    let direct = KgEngine::builder(model, &ds).threads(2).build();
    let served = KgEngine::builder(mapped, &ds).threads(2).build();
    for t in ds.test.iter().take(8) {
        let (h, r, tt) = (t.h.idx(), t.r.idx(), t.t.idx());
        assert_eq!(direct.rank_tail(h, r, tt).to_bits(), served.rank_tail(h, r, tt).to_bits());
        assert_eq!(direct.top_k_tails(h, r, 3), served.top_k_tails(h, r, 3));
    }
    std::fs::remove_file(&path).ok();
}
