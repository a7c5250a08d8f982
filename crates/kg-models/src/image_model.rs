//! The BLM model **image schema**: which `kg-table` segments hold what,
//! a writer that snapshots a trained [`BlmModel`] (f32 tables and the
//! serialised spec), and [`ImageBlmModel`] — the zero-copy,
//! memory-mapped model that scores straight out of the mapping.
//!
//! `kg-table` defines the container (header, directory, checksums,
//! 64-byte-aligned segments); this module fixes the segment ids and
//! shapes — the same split as an object-file format and its linker. An
//! image written by [`write_model_image`] holds four segments:
//!
//! | id                | dtype | shape                  | contents |
//! |-------------------|-------|------------------------|----------|
//! | [`SEG_META_U64`]  | u64   | 4                      | n_entities, n_relations, dim, flags |
//! | [`SEG_ENT_F32`]   | f32   | n_entities × dim       | entity table |
//! | [`SEG_REL_F32`]   | f32   | n_relations × dim      | relation table |
//! | [`SEG_SPEC_JSON`] | u8    | —                      | [`BlockSpec`] as JSON |
//!
//! `flags` is written as 0 and not read. Ids 4–6 held an i8 mirror of the
//! entity table in images written before PR 21; segments are found by id,
//! so such images still open and the extra segments are ignored.
//!
//! [`ImageBlmModel`] validates the whole schema at open, on the caller's
//! thread — segment presence, dtypes, cross-checked shapes, a decodable
//! spec — so every later accessor is infallible and allocation-free: the
//! GEMM fast paths read the mapping in place. Scoring is
//! **bit-identical** to the same model served from memory: the image
//! stores the exact f32 bytes, and every scoring path runs the same
//! kernels over them ([`BlmModel::from_image`] round-trips to an equal
//! in-memory model, which the tests pin down).

use crate::batch::{BatchScorer, BatchScratch};
use crate::blm::model::fill_query_block;
use crate::blm::{BlmModel, BlockSpec};
use crate::embeddings::Embeddings;
use crate::predictor::LinkPredictor;
use kg_linalg::{gemm, Mat};
use kg_table::{Image, ImageError, ImageWriter};
use std::cell::RefCell;
use std::path::Path;

/// Meta words: `[n_entities, n_relations, dim, flags]` (u64 each).
pub const SEG_META_U64: u32 = 1;
/// Entity embedding table, `n_entities × dim` f32 row-major.
pub const SEG_ENT_F32: u32 = 2;
/// Relation embedding table, `n_relations × dim` f32 row-major.
pub const SEG_REL_F32: u32 = 3;
/// The [`BlockSpec`] serialised as JSON (u8 segment).
pub const SEG_SPEC_JSON: u32 = 7;

/// Number of meta words in [`SEG_META_U64`].
const META_WORDS: usize = 4;

thread_local! {
    /// Per-thread query buffer for the per-query [`LinkPredictor`] paths —
    /// same zero-allocation steady state as the in-memory model.
    static QUERY_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn with_query_scratch<R>(dim: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    QUERY_SCRATCH.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < dim {
            buf.resize(dim, 0.0);
        }
        f(&mut buf[..dim])
    })
}

/// Serialise a trained model into image bytes: both f32 tables and the
/// spec.
///
/// Only fallible through the spec's JSON encoding (never for a valid
/// [`BlockSpec`]); the error is surfaced as [`ImageError::Schema`] rather
/// than a panic so callers get one error channel for the whole pipeline.
pub fn model_image_bytes(model: &BlmModel) -> Result<Vec<u8>, ImageError> {
    let spec_json = serde_json::to_string(&model.spec)
        .map_err(|e| ImageError::Schema(format!("spec serialisation failed: {e}")))?;
    let emb = &model.emb;
    let meta = [emb.n_entities() as u64, emb.n_relations() as u64, emb.dim() as u64, 0];
    let mut w = ImageWriter::new();
    w.seg_u64(SEG_META_U64, &meta)
        .seg_f32(SEG_ENT_F32, emb.ent.as_slice())
        .seg_f32(SEG_REL_F32, emb.rel.as_slice())
        .seg_bytes(SEG_SPEC_JSON, spec_json.as_bytes());
    Ok(w.to_bytes())
}

/// Write a trained model to an image file at `path` (create/truncate).
/// See [`model_image_bytes`] for the layout.
pub fn write_model_image(model: &BlmModel, path: &Path) -> Result<(), ImageError> {
    let bytes = model_image_bytes(model)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// A [`BlmModel`] served zero-copy out of a validated model image: every
/// scoring path reads embedding bytes straight from the mapping.
///
/// Implements the full model interface ([`LinkPredictor`] and
/// [`BatchScorer`] with the same GEMM fast paths as the in-memory model),
/// so `kg-serve`'s engine builder and `kg-eval`'s rankers accept it
/// unchanged — bit-identical scores included.
#[derive(Debug)]
pub struct ImageBlmModel {
    img: Image,
    spec: BlockSpec,
    n_entities: usize,
    n_relations: usize,
    dim: usize,
}

/// Shape-check one segment's element count, with a [`ImageError::Schema`]
/// message naming the segment.
fn expect_len(what: &str, got: usize, want: usize) -> Result<(), ImageError> {
    if got != want {
        return Err(ImageError::Schema(format!(
            "{what}: expected {want} elements, image holds {got}"
        )));
    }
    Ok(())
}

/// The model schema over an opened container — segment presence, dtypes,
/// cross-checked shapes and a decodable spec — as
/// `(n_entities, n_relations, dim, spec)`. The one validation both
/// [`ImageBlmModel::new`] and [`BlmModel::from_image`] run.
fn read_schema(img: &Image) -> Result<(usize, usize, usize, BlockSpec), ImageError> {
    let meta = img.u64s(SEG_META_U64)?;
    expect_len("meta segment", meta.len(), META_WORDS)?;
    let (n_entities, n_relations, dim) = (meta[0] as usize, meta[1] as usize, meta[2] as usize);
    if dim == 0 || dim % 4 != 0 {
        return Err(ImageError::Schema(format!(
            "embedding dim {dim} is not a positive multiple of 4"
        )));
    }
    let ent_elems = n_entities
        .checked_mul(dim)
        .ok_or_else(|| ImageError::Schema("entity table size overflows".into()))?;
    let rel_elems = n_relations
        .checked_mul(dim)
        .ok_or_else(|| ImageError::Schema("relation table size overflows".into()))?;
    expect_len("entity table", img.f32s(SEG_ENT_F32)?.len(), ent_elems)?;
    expect_len("relation table", img.f32s(SEG_REL_F32)?.len(), rel_elems)?;
    let spec_str = std::str::from_utf8(img.bytes(SEG_SPEC_JSON)?)
        .map_err(|e| ImageError::Schema(format!("spec segment is not UTF-8: {e}")))?;
    let spec: BlockSpec = serde_json::from_str(spec_str)
        .map_err(|e| ImageError::Schema(format!("spec segment does not parse: {e}")))?;
    Ok((n_entities, n_relations, dim, spec))
}

impl ImageBlmModel {
    /// Memory-map the image at `path` and validate the model schema on
    /// top of the container validation [`Image::open`] already performs.
    pub fn open(path: &Path) -> Result<ImageBlmModel, ImageError> {
        ImageBlmModel::new(Image::open(path)?)
    }

    /// Validate a model schema over an already-opened image. All segment
    /// presence, dtype and cross-shape checks happen here, on the
    /// caller's thread — after this returns, every accessor is
    /// infallible.
    pub fn new(img: Image) -> Result<ImageBlmModel, ImageError> {
        let (n_entities, n_relations, dim, spec) = read_schema(&img)?;
        Ok(ImageBlmModel { img, spec, n_entities, n_relations, dim })
    }

    /// The scoring-function structure decoded from the image.
    pub fn spec(&self) -> &BlockSpec {
        &self.spec
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn dsub(&self) -> usize {
        self.dim / 4
    }

    /// The full entity table, row-major, borrowed from the mapping.
    pub fn ent(&self) -> &[f32] {
        // Validated in `new`: present, F32, n_entities × dim elements.
        self.img.f32s(SEG_ENT_F32).expect("validated at open")
    }

    /// The full relation table, row-major, borrowed from the mapping.
    pub fn rel(&self) -> &[f32] {
        self.img.f32s(SEG_REL_F32).expect("validated at open")
    }

    fn entity_row(&self, e: usize) -> &[f32] {
        &self.ent()[e * self.dim..(e + 1) * self.dim]
    }

    fn rel_row(&self, r: usize) -> &[f32] {
        &self.rel()[r * self.dim..(r + 1) * self.dim]
    }

    /// The underlying container (for [`Image::verify`] or inspection).
    pub fn image(&self) -> &Image {
        &self.img
    }
}

impl BlmModel {
    /// Copy an image back into an owned in-memory model — the inverse of
    /// [`write_model_image`], used where mutation (training) is needed.
    /// Embeddings and spec are bit-identical to what was written.
    pub fn from_image(img: &Image) -> Result<BlmModel, ImageError> {
        let (n_entities, n_relations, dim, spec) = read_schema(img)?;
        let emb = Embeddings {
            ent: Mat::from_vec(n_entities, dim, img.f32s(SEG_ENT_F32)?.to_vec()),
            rel: Mat::from_vec(n_relations, dim, img.f32s(SEG_REL_F32)?.to_vec()),
        };
        Ok(BlmModel::new(spec, emb))
    }
}

impl LinkPredictor for ImageBlmModel {
    fn n_entities(&self) -> usize {
        self.n_entities
    }

    fn n_relations(&self) -> Option<usize> {
        Some(self.n_relations)
    }

    fn score_triple(&self, h: usize, r: usize, t: usize) -> f32 {
        self.spec.score(self.entity_row(h), self.rel_row(r), self.entity_row(t), self.dsub())
    }

    fn score_tails(&self, h: usize, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.n_entities, "score_tails: out length mismatch");
        with_query_scratch(self.dim, |q| {
            self.spec.tail_query(self.entity_row(h), self.rel_row(r), q, self.dsub());
            // Same per-row dot, same order, as `Mat::gemv` — bit-identical
            // to the in-memory model.
            for (e, o) in out.iter_mut().enumerate() {
                *o = kg_linalg::vecops::dot(self.entity_row(e), q);
            }
        });
    }

    fn score_heads(&self, r: usize, t: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.n_entities, "score_heads: out length mismatch");
        with_query_scratch(self.dim, |p| {
            self.spec.head_query(self.entity_row(t), self.rel_row(r), p, self.dsub());
            for (e, o) in out.iter_mut().enumerate() {
                *o = kg_linalg::vecops::dot(self.entity_row(e), p);
            }
        });
    }
}

impl BatchScorer for ImageBlmModel {
    /// Same row-restricted GEMM as the in-memory model — the slice-core
    /// kernels run directly over the mapped entity segment.
    fn score_shard(
        &self,
        tails: &[(usize, usize)],
        heads: &[(usize, usize)],
        shard: std::ops::Range<usize>,
        out: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        let (dim, n, rows) = (self.dim, self.n_entities, tails.len() + heads.len());
        crate::batch::checked_shard_width(&shard, n, rows, out.len());
        let policy = scratch.policy();
        let q = scratch.query_block(rows, dim);
        fill_query_block(&self.spec, self.ent(), self.rel(), dim, tails, heads, q);
        gemm::gemm_nt_rows_slice_with(policy, q, rows, dim, self.ent(), n, shard, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blm::classics;
    use kg_linalg::SeededRng;

    fn model() -> BlmModel {
        let mut rng = SeededRng::new(77);
        BlmModel::new(classics::simple(), Embeddings::init(11, 3, 16, &mut rng))
    }

    fn image_model(m: &BlmModel) -> ImageBlmModel {
        let bytes = model_image_bytes(m).expect("serialise");
        ImageBlmModel::new(Image::from_bytes(&bytes).expect("container parses"))
            .expect("schema validates")
    }

    #[test]
    fn image_scoring_is_bit_identical_to_the_source_model() {
        let m = model();
        let im = image_model(&m);
        assert_eq!(im.n_entities(), m.n_entities());
        assert_eq!(im.n_relations(), m.n_relations());
        // Embedding bytes survive untouched.
        assert_eq!(im.ent(), m.emb.ent.as_slice());
        assert_eq!(im.rel(), m.emb.rel.as_slice());
        let n = m.n_entities();
        let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
        for (h, r) in [(0, 0), (7, 2), (10, 1)] {
            m.score_tails(h, r, &mut a);
            im.score_tails(h, r, &mut b);
            assert_eq!(a, b, "tails ({h},{r})");
            m.score_heads(r, h, &mut a);
            im.score_heads(r, h, &mut b);
            assert_eq!(a, b, "heads ({r},{h})");
            assert_eq!(m.score_triple(h, r, 3).to_bits(), im.score_triple(h, r, 3).to_bits());
        }
    }

    #[test]
    fn image_batch_paths_match_per_query_bit_for_bit() {
        let m = model();
        let im = image_model(&m);
        crate::batch::test_support::assert_batch_matches_per_query(
            &im,
            &[(0, 0), (5, 2), (10, 1), (3, 0)],
            &[(0, 1), (2, 5), (1, 9)],
        );
    }

    #[test]
    fn from_image_round_trips_the_model() {
        let m = model();
        let bytes = model_image_bytes(&m).unwrap();
        let img = Image::from_bytes(&bytes).unwrap();
        let back = BlmModel::from_image(&img).expect("round-trip");
        assert_eq!(back.spec, m.spec);
        assert_eq!(back.emb.ent.as_slice(), m.emb.ent.as_slice());
        assert_eq!(back.emb.rel.as_slice(), m.emb.rel.as_slice());
    }

    /// The parent's seven-segment layout — ids 4–6 between the relation
    /// table and the spec, `flags` = 1 — opens and scores like the
    /// four-segment image: segments are found by id, the rest ignored.
    #[test]
    fn images_with_the_retired_quant_segments_still_open() {
        let m = model();
        let spec_json = serde_json::to_string(&m.spec).unwrap();
        let mut w = ImageWriter::new();
        w.seg_u64(SEG_META_U64, &[m.n_entities() as u64, 3, 16, 1])
            .seg_f32(SEG_ENT_F32, m.emb.ent.as_slice())
            .seg_f32(SEG_REL_F32, m.emb.rel.as_slice())
            .seg_bytes(4, &[0u8; 11 * 16])
            .seg_f32(5, &[1.0; 11])
            .seg_u64(6, &[0; 11])
            .seg_bytes(SEG_SPEC_JSON, spec_json.as_bytes());
        let legacy = ImageBlmModel::new(Image::from_bytes(&w.to_bytes()).unwrap()).expect("opens");
        let current = image_model(&m);
        let n = m.n_entities();
        let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
        legacy.score_tails(7, 2, &mut a);
        current.score_tails(7, 2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn schema_violations_are_typed_errors() {
        let m = model();

        // Missing segment: an image with only the meta word.
        let mut w = ImageWriter::new();
        w.seg_u64(SEG_META_U64, &[4, 1, 8, 1]);
        let img = Image::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(ImageBlmModel::new(img), Err(ImageError::MissingSegment { .. })));

        // Meta claiming the wrong entity count: shape mismatch → Schema.
        let spec_json = serde_json::to_string(&m.spec).unwrap();
        let mut w = ImageWriter::new();
        w.seg_u64(SEG_META_U64, &[m.n_entities() as u64 + 1, 3, 16, 1])
            .seg_f32(SEG_ENT_F32, m.emb.ent.as_slice())
            .seg_f32(SEG_REL_F32, m.emb.rel.as_slice())
            .seg_bytes(SEG_SPEC_JSON, spec_json.as_bytes());
        let img = Image::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(ImageBlmModel::new(img), Err(ImageError::Schema(_))));

        // Undecodable spec JSON → Schema.
        let mut w = ImageWriter::new();
        w.seg_u64(SEG_META_U64, &[m.n_entities() as u64, 3, 16, 1])
            .seg_f32(SEG_ENT_F32, m.emb.ent.as_slice())
            .seg_f32(SEG_REL_F32, m.emb.rel.as_slice())
            .seg_bytes(SEG_SPEC_JSON, b"not json at all");
        let img = Image::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(ImageBlmModel::new(img), Err(ImageError::Schema(_))));

        // Dim not a multiple of 4 → Schema.
        let mut w = ImageWriter::new();
        w.seg_u64(SEG_META_U64, &[2, 1, 6, 1]);
        let img = Image::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(ImageBlmModel::new(img), Err(ImageError::Schema(_))));
    }

    #[test]
    fn file_round_trip_serves_identically() {
        let m = model();
        let path = std::env::temp_dir().join(format!("kg-models-img-{}.kgi", std::process::id()));
        write_model_image(&m, &path).expect("write");
        let im = ImageBlmModel::open(&path).expect("open");
        im.image().verify().expect("payload intact");
        let n = m.n_entities();
        let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
        m.score_tails(4, 1, &mut a);
        im.score_tails(4, 1, &mut b);
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }
}
