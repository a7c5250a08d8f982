//! The comparison searchers of Fig. 6: random search and a TPE "Bayes"
//! search over fixed-size structures. (The Gen-Approx comparison model
//! lives in `kg_models::nnm`; the greedy ablations are flags on
//! [`crate::GreedyConfig`].)

use crate::invariance::OrbitKey;
use crate::search::SearchDriver;
use crate::space::random_spec;
use kg_linalg::SeededRng;
use kg_models::{Block, BlockSpec};
use kg_train::tpe::{Param, Tpe};

/// Random search: sample C2-valid structures with `b` blocks, train up to
/// `budget` models. Returns the best validation MRR. Like
/// [`bayes_search`], it gives up after `budget · 40` samples in a row that
/// train nothing, so a space with fewer orbits than `budget` ends.
pub fn random_search(driver: &mut SearchDriver<'_>, b: usize, budget: usize, seed: u64) -> f64 {
    let mut rng = SeededRng::new(seed ^ 0x7A5D_0000_1111_2222);
    let mut best = 0.0f64;
    let mut stall = 0usize;
    while driver.models_trained() < budget && stall < budget * 40 {
        let Some(spec) = random_spec(b, &mut rng, 200) else { break };
        let key = OrbitKey::of(&spec);
        if driver.seen(key) {
            stall += 1;
            continue;
        }
        let mrr = driver.evaluate_keyed(std::slice::from_ref(&spec), &[key])[0];
        best = best.max(mrr);
        stall = 0;
    }
    best
}

/// Encode/decode between a structure with `b` blocks and the TPE's
/// categorical space: per block (cell ∈ 0..16, relation ∈ 0..4, sign ∈ 0..2).
pub fn tpe_space(b: usize) -> Vec<Param> {
    let mut space = Vec::with_capacity(3 * b);
    for _ in 0..b {
        space.push(Param::Choice { n: 16 });
        space.push(Param::Choice { n: 4 });
        space.push(Param::Choice { n: 2 });
    }
    space
}

/// Decode a TPE point into a structure; `None` when two blocks collide on
/// a cell.
pub fn decode_point(point: &[f64]) -> Option<BlockSpec> {
    assert!(point.len().is_multiple_of(3), "point length must be a multiple of 3");
    let blocks: Vec<Block> = point
        .chunks(3)
        .map(|c| {
            let cell = (c[0] as usize).min(15);
            Block {
                hc: (cell / 4) as u8,
                rc: (c[1] as usize).min(3) as u8,
                tc: (cell % 4) as u8,
                sign: if c[2] as usize == 0 { 1 } else { -1 },
            }
        })
        .collect();
    BlockSpec::try_new(blocks)
}

/// Bayes (TPE) search over structures with `b` blocks; trains up to
/// `budget` models. Invalid decodings are penalised with score 0 so the
/// estimator learns to avoid colliding cells. Returns the best MRR.
pub fn bayes_search(driver: &mut SearchDriver<'_>, b: usize, budget: usize, seed: u64) -> f64 {
    let mut rng = SeededRng::new(seed ^ 0xBA1E_5EED_0000_0001);
    let mut tpe = Tpe::new(tpe_space(b)).with_startup(8);
    let mut best = 0.0f64;
    let mut stall = 0usize;
    while driver.models_trained() < budget && stall < budget * 40 {
        let point = tpe.suggest(&mut rng);
        // (C2) before the orbit key: it is the cheaper reject
        let valid = decode_point(&point)
            .filter(crate::filter::satisfies_c2)
            .map(|spec| (OrbitKey::of(&spec), spec));
        match valid {
            Some((key, spec)) if !driver.seen(key) => {
                let mrr = driver.evaluate_keyed(std::slice::from_ref(&spec), &[key])[0];
                tpe.observe(point, mrr);
                best = best.max(mrr);
                stall = 0;
            }
            _ => {
                // structurally invalid or already trained: tell the
                // estimator this region is bad, at zero training cost
                tpe.observe(point, 0.0);
                stall += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datagen::{preset, Preset, Scale};
    use kg_train::TrainConfig;

    fn driver(ds: &kg_core::Dataset) -> SearchDriver<'_> {
        let cfg = TrainConfig { dim: 16, epochs: 5, batch_size: 256, ..Default::default() };
        SearchDriver::new(ds, cfg, 2)
    }

    #[test]
    fn random_search_respects_budget() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 17);
        let mut d = driver(&ds);
        let best = random_search(&mut d, 6, 6, 1);
        assert!(d.models_trained() <= 6);
        assert!(best > 0.0);
    }

    /// `b = 4` reaches only the 5 f4 orbits, so a budget of 6 cannot be
    /// spent: the search must end with every orbit trained, not spin.
    #[test]
    fn random_search_ends_when_the_space_runs_out() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 17);
            let mut d = driver(&ds);
            random_search(&mut d, 4, 6, 1);
            tx.send(d.models_trained())
        });
        let trained = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("random_search did not return (10 s watchdog)");
        assert!(trained <= 5, "{trained} models from 5 orbits");
    }

    #[test]
    fn decode_roundtrip() {
        // blocks (0,0,0,+) and (1,1,1,-): cells 0 and 5
        let point = vec![0.0, 0.0, 0.0, 5.0, 1.0, 1.0];
        let spec = decode_point(&point).expect("valid");
        assert_eq!(spec.n_blocks(), 2);
        let m = spec.substitute_matrix();
        assert_eq!(m[0][0], 1);
        assert_eq!(m[1][1], -2);
    }

    #[test]
    fn decode_rejects_cell_collisions() {
        // both blocks on cell 3
        let point = vec![3.0, 0.0, 0.0, 3.0, 1.0, 0.0];
        assert!(decode_point(&point).is_none());
    }

    #[test]
    fn bayes_search_trains_models() {
        let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 18);
        let mut d = driver(&ds);
        let best = bayes_search(&mut d, 6, 5, 2);
        assert!(d.models_trained() >= 1);
        assert!(best >= 0.0);
    }
}
