//! Serialisation round-trips: datasets, structures and trained models
//! survive JSON, and a reloaded model scores identically.

use kg_core::Dataset;
use kg_datagen::{preset, Preset, Scale};
use kg_models::{BlmModel, BlockSpec, LinkPredictor};
use kg_train::{TrainConfig, Trainer};

#[test]
fn dataset_roundtrips_through_json() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 51);
    let text = serde_json::to_string(&ds).expect("serialise dataset");
    let back: Dataset = serde_json::from_str(&text).expect("deserialise dataset");
    assert_eq!(back.train, ds.train);
    assert_eq!(back.valid, ds.valid);
    assert_eq!(back.test, ds.test);
    assert_eq!(back.n_entities, ds.n_entities);
}

#[test]
fn blockspec_roundtrips_through_json() {
    for (_, spec) in kg_models::blm::classics::all() {
        let text = serde_json::to_string(&spec).expect("serialise spec");
        let back: BlockSpec = serde_json::from_str(&text).expect("deserialise spec");
        assert_eq!(back, spec);
    }
}

#[test]
fn trained_model_roundtrips_and_scores_identically() {
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 52);
    let cfg = TrainConfig { dim: 16, epochs: 5, ..Default::default() };
    let model = Trainer::new(cfg).train(&kg_models::blm::classics::simple(), &ds);
    let text = serde_json::to_string(&model).expect("serialise model");
    let back: BlmModel = serde_json::from_str(&text).expect("deserialise model");
    // Structure and both tables survive bit for bit, so scores do too.
    assert_eq!(back.spec, model.spec);
    assert_eq!(bits(back.emb.ent.as_slice()), bits(model.emb.ent.as_slice()));
    assert_eq!(bits(back.emb.rel.as_slice()), bits(model.emb.rel.as_slice()));
    let mut a = vec![0.0f32; model.n_entities()];
    let mut b = vec![0.0f32; model.n_entities()];
    model.score_tails(3, 0, &mut a);
    back.score_tails(3, 0, &mut b);
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(model.score_triple(1, 0, 2), back.score_triple(1, 0, 2));
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn dataset_tsv_roundtrip_preserves_structure() {
    let ds = preset(Preset::Fb15k237Like, Scale::Tiny, 53);
    let dir = std::env::temp_dir().join(format!("autosf-tsv-{}", std::process::id()));
    kg_core::io::save_dir(&ds, &dir, None).expect("save");
    let (back, _) = kg_core::io::load_dir(&dir, "reload").expect("load");
    // names re-map ids, so compare sizes and the relation census instead
    assert_eq!(back.train.len(), ds.train.len());
    assert_eq!(back.test.len(), ds.test.len());
    assert_eq!(back.n_relations, ds.n_relations);
    assert_eq!(back.n_entities, ds.n_entities);
    let a = kg_core::DatasetStats::of(&ds);
    let b = kg_core::DatasetStats::of(&back);
    assert_eq!(a.n_symmetric, b.n_symmetric);
    assert_eq!(a.n_inverse, b.n_inverse);
    std::fs::remove_dir_all(&dir).ok();
}
