//! Equivalence suite for the serving engine: every [`KgEngine`] response —
//! score, filtered rank, top-k — must be **bit-identical** to the
//! sequential per-query [`LinkPredictor`] reference, for every shipped
//! model family, any worker-thread count, any batch block size, and any
//! interleaving of concurrently submitting clients.
//!
//! This is the serving counterpart of `kg-eval`'s batch/shard equivalence
//! suites: the engine's batching queue may group queries into arbitrary
//! blocks depending on arrival timing, and its crew shards each block
//! across threads — none of which may show in any answer, because shard
//! scores are bit-identical slices of the full-table rows and the
//! rank/top-k primitives are shared with the per-query path.

use kg_core::{FilterIndex, Triple};
use kg_eval::ranking::{filtered_rank, top_k};
use kg_linalg::SeededRng;
use kg_models::blm::classics;
use kg_models::nnm::{GenApprox, NnmConfig};
use kg_models::tdm::{RotatE, TdmConfig};
use kg_models::{BatchScorer, BlmModel, Embeddings, KernelPolicy, LinkPredictor};
use kg_serve::{KgEngine, RankTicket, RequestClass, ScoreTicket, ServeError, TopKTicket};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N_ENTITIES: usize = 40;
const N_RELATIONS: usize = 3;

/// The all-ties degenerate case: every answer is decided purely by tie
/// counting and deterministic tie-breaking.
struct Flat {
    n: usize,
}

impl LinkPredictor for Flat {
    fn n_entities(&self) -> usize {
        self.n
    }
    fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
        0.125
    }
    fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.125);
    }
    fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
        out.fill(0.125);
    }
}

impl BatchScorer for Flat {}

/// One request drawn by the property, plus its reference answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Score { h: usize, r: usize, t: usize },
    RankTail { h: usize, r: usize, t: usize },
    RankHead { h: usize, r: usize, t: usize },
    TopKTails { h: usize, r: usize, k: usize },
    TopKHeads { r: usize, t: usize, k: usize },
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Score(f32),
    Rank(f64),
    TopK(Vec<(usize, f32)>),
}

fn decode(raw: &[(u8, usize, usize, usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b, c, k)| match kind % 5 {
            0 => Op::Score { h: a, r: b, t: c },
            1 => Op::RankTail { h: a, r: b, t: c },
            2 => Op::RankHead { h: a, r: b, t: c },
            3 => Op::TopKTails { h: a, r: b, k },
            _ => Op::TopKHeads { r: b, t: c, k },
        })
        .collect()
}

/// The sequential per-query reference: one score row at a time through
/// [`LinkPredictor`], ranks and top-k via the shared `kg-eval` primitives.
fn reference(model: &dyn LinkPredictor, filter: &FilterIndex, op: Op) -> Answer {
    let n = model.n_entities();
    let mut row = vec![0.0f32; n];
    match op {
        Op::Score { h, r, t } => Answer::Score(model.score_triple(h, r, t)),
        Op::RankTail { h, r, t } => {
            model.score_tails(h, r, &mut row);
            let known = filter.tails(kg_core::EntityId(h as u32), kg_core::RelationId(r as u32));
            Answer::Rank(filtered_rank(&row, t, known))
        }
        Op::RankHead { h, r, t } => {
            model.score_heads(r, t, &mut row);
            let known = filter.heads(kg_core::RelationId(r as u32), kg_core::EntityId(t as u32));
            Answer::Rank(filtered_rank(&row, h, known))
        }
        Op::TopKTails { h, r, k } => {
            model.score_tails(h, r, &mut row);
            Answer::TopK(top_k(&row, k))
        }
        Op::TopKHeads { r, t, k } => {
            model.score_heads(r, t, &mut row);
            Answer::TopK(top_k(&row, k))
        }
    }
}

fn engine_answer(engine: &KgEngine, op: Op) -> Answer {
    match op {
        Op::Score { h, r, t } => Answer::Score(engine.score(h, r, t)),
        Op::RankTail { h, r, t } => Answer::Rank(engine.rank_tail(h, r, t)),
        Op::RankHead { h, r, t } => Answer::Rank(engine.rank_head(h, r, t)),
        Op::TopKTails { h, r, k } => Answer::TopK(engine.top_k_tails(h, r, k)),
        Op::TopKHeads { r, t, k } => Answer::TopK(engine.top_k_heads(r, t, k)),
    }
}

/// A filter with repeated `(h, r)` / `(r, t)` groups so filtered ranking
/// actually excludes candidates.
fn filter(seed: u64) -> FilterIndex {
    let mut rng = SeededRng::new(seed);
    FilterIndex::build(
        &(0..60)
            .map(|i| {
                if i % 4 == 0 {
                    Triple::new(2, 1, rng.below(N_ENTITIES) as u32)
                } else {
                    Triple::new(
                        rng.below(N_ENTITIES) as u32,
                        rng.below(N_RELATIONS) as u32,
                        rng.below(N_ENTITIES) as u32,
                    )
                }
            })
            .collect::<Vec<_>>(),
    )
}

/// Drive `ops` through an engine from `clients` concurrently submitting
/// threads and assert each answer equals the sequential reference, bit for
/// bit. The model is shared as an `Arc` — the pointer forwarding impls
/// keep its batch/shard overrides — so one set of parameters backs both
/// the engine and the reference path.
fn assert_serve_matches_reference<M>(
    model: Arc<M>,
    name: &str,
    ops: &[Op],
    threads: usize,
    block: usize,
) where
    M: BatchScorer + Send + Sync + 'static,
{
    assert_serve_matches_reference_cfg(model, name, ops, threads, block, Duration::ZERO);
}

/// [`assert_serve_matches_reference`] with the linger budget explicit.
/// Also asserts that **every ticket resolves** (no starvation: the
/// per-engine stats account for every submitted op, none failed, queues
/// drained).
fn assert_serve_matches_reference_cfg<M>(
    model: Arc<M>,
    name: &str,
    ops: &[Op],
    threads: usize,
    block: usize,
    linger: Duration,
) where
    M: BatchScorer + Send + Sync + 'static,
{
    let fi = filter(0x5E21);
    let expected: Vec<Answer> = ops.iter().map(|&op| reference(&*model, &fi, op)).collect();

    for clients in [1usize, 3] {
        let engine = Arc::new(
            KgEngine::with_filter(Arc::clone(&model), fi.clone())
                .threads(threads)
                .block(block)
                .linger(linger)
                .policy(KernelPolicy::Exact)
                .build(),
        );
        let chunk = ops.len().div_ceil(clients).max(1);
        let answers = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (slice_idx, slice) in ops.chunks(chunk).enumerate() {
                let engine = Arc::clone(&engine);
                handles.push(scope.spawn(move || {
                    let got: Vec<Answer> =
                        slice.iter().map(|&op| engine_answer(&engine, op)).collect();
                    (slice_idx, got)
                }));
            }
            let mut merged: Vec<Vec<Answer>> = vec![Vec::new(); handles.len()];
            for handle in handles {
                let (slice_idx, got) = handle.join().expect("client thread panicked");
                merged[slice_idx] = got;
            }
            merged.concat()
        });
        assert_eq!(
            answers, expected,
            "{name}: serve answers diverged (threads={threads}, block={block}, \
             clients={clients}, linger={linger:?})"
        );
        let stats = engine.stats();
        assert_eq!(
            stats.queries_served,
            ops.len() as u64,
            "{name}: every submitted op must be answered exactly once"
        );
        assert_eq!(stats.queries_failed, 0, "{name}: no op may fail");
        assert_eq!(
            stats.depth_score + stats.depth_tails + stats.depth_heads,
            0,
            "{name}: queues must drain"
        );
    }
}

/// One outstanding submitted op, whichever ticket type it produced.
enum AnyTicket {
    Score(ScoreTicket),
    Rank(RankTicket),
    TopK(TopKTicket),
}

impl AnyTicket {
    fn wait_result(self) -> Result<Answer, ServeError> {
        match self {
            AnyTicket::Score(t) => t.wait_result().map(Answer::Score),
            AnyTicket::Rank(t) => t.wait_result().map(Answer::Rank),
            AnyTicket::TopK(t) => t.wait_result().map(Answer::TopK),
        }
    }
}

/// Submit `op` through a per-client handle, honouring `retry_after` on
/// shed until the engine admits it. Returns the ticket plus how many
/// sheds the submission ate.
fn submit_with_backoff(engine: &KgEngine, client: u64, op: Op) -> (AnyTicket, u64) {
    let mut sheds = 0u64;
    loop {
        let handle = engine.client(client);
        let submitted = match op {
            Op::Score { h, r, t } => handle.submit_score(h, r, t).map(AnyTicket::Score),
            Op::RankTail { h, r, t } => handle.submit_rank_tail(h, r, t).map(AnyTicket::Rank),
            Op::RankHead { h, r, t } => handle.submit_rank_head(h, r, t).map(AnyTicket::Rank),
            Op::TopKTails { h, r, k } => handle.submit_top_k_tails(h, r, k).map(AnyTicket::TopK),
            Op::TopKHeads { r, t, k } => handle.submit_top_k_heads(r, t, k).map(AnyTicket::TopK),
        };
        match submitted {
            Ok(ticket) => return (ticket, sheds),
            Err(kg_serve::SubmitError::Shed { retry_after, .. }) => {
                sheds += 1;
                // A live engine keeps draining, so honouring the hint
                // always readmits eventually; cap the nap so a stale
                // (pre-measurement) hint cannot slow the suite.
                std::thread::sleep(retry_after.min(Duration::from_millis(2)));
            }
        }
    }
}

/// The admission-control matrix: queue caps (tiny / default / unbounded)
/// × deadline on/off, driven through the keyed per-client submit path
/// (three round-robin client lanes) with retry-after backoff on shed.
/// Every ticket settles — answered or expired, never failed — every
/// *answered* response is bit-identical to the sequential reference, and
/// the overload counters account for every admission exactly once.
fn assert_admission_never_shows<M>(
    model: Arc<M>,
    name: &str,
    ops: &[Op],
    cap: usize,
    deadline: Option<Duration>,
) where
    M: BatchScorer + Send + Sync + 'static,
{
    let fi = filter(0x5E21);
    let expected: Vec<Answer> = ops.iter().map(|&op| reference(&*model, &fi, op)).collect();

    let mut builder = KgEngine::with_filter(Arc::clone(&model), fi)
        .threads(2)
        .block(4)
        .policy(KernelPolicy::Exact);
    for class in RequestClass::ALL {
        builder = builder.max_queued(class, cap);
    }
    if let Some(limit) = deadline {
        builder = builder.deadline(limit);
    }
    let engine = builder.build();

    let mut sheds = 0;
    let tickets: Vec<AnyTicket> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| {
            let (ticket, shed) = submit_with_backoff(&engine, (i % 3) as u64, op);
            sheds += shed;
            ticket
        })
        .collect();

    let admitted = tickets.len() as u64;
    let mut expired = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait_result() {
            Ok(answer) => assert_eq!(
                answer, expected[i],
                "{name}: answered op {i} diverged (cap={cap}, deadline={deadline:?})"
            ),
            Err(err) if err.is_expired() => {
                assert!(deadline.is_some(), "{name}: expiry without a deadline configured");
                expired += 1;
            }
            Err(other) => panic!("{name}: op {i} failed unexpectedly: {other}"),
        }
    }

    let stats = engine.stats();
    assert_eq!(stats.queries_shed, sheds, "{name}: shed counter must match observed sheds");
    assert_eq!(stats.queries_expired, expired, "{name}: expired counter must match tickets");
    assert_eq!(stats.queries_failed, 0, "{name}: admission knobs must not fail requests");
    assert_eq!(
        stats.queries_served + stats.queries_expired,
        admitted,
        "{name}: every admitted request settles exactly once"
    );
    assert_eq!(
        stats.latency_score.count() + stats.latency_tails.count() + stats.latency_heads.count(),
        admitted,
        "{name}: histograms record exactly the settled requests"
    );
    assert_eq!(
        stats.depth_score + stats.depth_tails + stats.depth_heads,
        0,
        "{name}: queues must drain"
    );
}

/// Raw op tuples: ids stay in range by construction, k up to beyond-table.
fn raw_ops(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u8, usize, usize, usize, usize)>> {
    prop::collection::vec(
        (0u8..5, 0usize..N_ENTITIES, 0usize..N_RELATIONS, 0usize..N_ENTITIES, 0usize..50),
        len,
    )
}

/// Decode raw tuples into a mixed-direction-heavy workload: mostly tail
/// and head rank queries (so row blocks mix both directions), with the
/// occasional score / top-k sprinkled in.
fn decode_mixed(raw: &[(u8, usize, usize, usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b, c, k)| match kind % 8 {
            0..=2 => Op::RankTail { h: a, r: b, t: c },
            3..=5 => Op::RankHead { h: a, r: b, t: c },
            6 => Op::Score { h: a, r: b, t: c },
            _ => {
                if k % 2 == 0 {
                    Op::TopKTails { h: a, r: b, k }
                } else {
                    Op::TopKHeads { r: b, t: c, k }
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// BLM classics: native entity-sharded crew, every thread count — the
    /// range runs well past typical CI core counts, so oversubscribed
    /// crews (workers > cores) exercise the pipeline under preemption.
    #[test]
    fn blm_classics_bit_identical(
        spec_idx in 0usize..4,
        n_threads in 1usize..=16,
        raw in raw_ops(12..30),
    ) {
        let (name, spec) = classics::all().swap_remove(spec_idx);
        let mut rng = SeededRng::new(0xB0 + spec_idx as u64);
        let model = BlmModel::new(spec, Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng));
        assert_serve_matches_reference(Arc::new(model), name, &decode(&raw), n_threads, 64);
    }

    /// Tiny block sizes force many partial batches — including block(1),
    /// the unbatched one-at-a-time dispatch.
    #[test]
    fn block_size_never_shows(
        block in prop::sample::select(vec![1usize, 2, 7, 64]),
        n_threads in 1usize..=4,
        raw in raw_ops(8..20),
    ) {
        let mut rng = SeededRng::new(0xB10C + block as u64);
        let model = BlmModel::new(
            classics::complex(),
            Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
        );
        assert_serve_matches_reference(Arc::new(model), "ComplEx", &decode(&raw), n_threads, block);
    }

    /// RotatE's paired-lane shard kernel behind the entity-sharded crew —
    /// the distance family's serving path, same bit-identity, again up to
    /// an oversubscribed 16 workers.
    #[test]
    fn rotate_entity_shard_crew_bit_identical(
        n_threads in 1usize..=16,
        seed in 0u64..1_000,
        raw in raw_ops(8..20),
    ) {
        let mut rng = SeededRng::new(seed);
        let cfg = TdmConfig { dim: 12, ..Default::default() };
        let model = RotatE::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
        assert_serve_matches_reference(Arc::new(model), "RotatE", &decode(&raw), n_threads, 64);
    }

    /// The Gen-Approx MLP: query-network forward + row-restricted GEMM.
    #[test]
    fn nnm_bit_identical(n_threads in 1usize..=6, raw in raw_ops(8..16)) {
        let mut rng = SeededRng::new(0x99);
        let cfg = NnmConfig { dim: 16, epochs: 0, lr: 0.1, l2: 1e-4 };
        let model = GenApprox::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
        assert_serve_matches_reference(Arc::new(model), "GenApprox", &decode(&raw), n_threads, 64);
    }

    /// The latency-aware scheduler: mixed-direction concurrent clients ×
    /// linger budgets × crew sizes, so blocks mix both directions in any
    /// proportion. None of it may show in any answer (bit-identity), and
    /// every ticket must resolve (no starvation) — the entity-sharded crew
    /// layout.
    #[test]
    fn scheduler_knobs_never_show_entity_shards(
        linger_us in prop::sample::select(vec![0u64, 100, 2_000]),
        n_threads in 1usize..=12,
        block in prop::sample::select(vec![3usize, 64]),
        raw in raw_ops(12..28),
    ) {
        let mut rng = SeededRng::new(0x5C4ED + linger_us);
        let model = BlmModel::new(
            classics::complex(),
            Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
        );
        assert_serve_matches_reference_cfg(
            Arc::new(model),
            "ComplEx/scheduler",
            &decode_mixed(&raw),
            n_threads,
            block,
            Duration::from_micros(linger_us),
        );
    }

    /// The admission knobs — queue caps from shed-happy to unbounded,
    /// deadline on/off — may shed or expire requests but never change an
    /// answered byte, and the counters must account for every submission.
    #[test]
    fn admission_knobs_never_show(
        cap in prop::sample::select(vec![2usize, kg_serve::KgEngineBuilder::DEFAULT_MAX_QUEUED, usize::MAX]),
        deadline_us in prop::sample::select(vec![0u64, 3_000]),
        raw in raw_ops(10..24),
    ) {
        let mut rng = SeededRng::new(0xAD_0115 ^ cap as u64);
        let model = BlmModel::new(
            classics::complex(),
            Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
        );
        let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
        assert_admission_never_shows(
            Arc::new(model),
            "ComplEx/admission",
            &decode_mixed(&raw),
            cap,
            deadline,
        );
    }

    /// Same knob sweep over RotatE's distance kernel instead of a GEMM.
    #[test]
    fn scheduler_knobs_never_show_rotate(
        linger_us in prop::sample::select(vec![0u64, 500]),
        n_threads in 1usize..=5,
        raw in raw_ops(10..22),
    ) {
        let mut rng = SeededRng::new(0x7D1 + linger_us);
        let cfg = TdmConfig { dim: 12, ..Default::default() };
        let model = RotatE::init(N_ENTITIES, N_RELATIONS, cfg, &mut rng);
        assert_serve_matches_reference_cfg(
            Arc::new(model),
            "RotatE/scheduler",
            &decode_mixed(&raw),
            n_threads,
            8,
            Duration::from_micros(linger_us),
        );
    }
}

/// Pins — once per suite run, with every answer still checked against the
/// reference — that mixed-direction blocks really run: six tail and six
/// head queries, submitted interleaved under a long linger into a
/// 12-query block, are cut as one block, at one worker and at four. The
/// block is ordered tail rows first, so this also checks that every
/// answer reaches its own ticket.
#[test]
fn mixed_blocks_are_exercised() {
    let mut rng = SeededRng::new(0x1A7);
    let model = Arc::new(BlmModel::new(
        classics::complex(),
        Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
    ));
    let fi = filter(0x1A7);
    let mixed: Vec<Op> = (0..6)
        .flat_map(|i| {
            [
                Op::RankHead { h: 2 * i, r: i % N_RELATIONS, t: i + 7 },
                Op::RankTail { h: i, r: i % N_RELATIONS, t: 3 * i + 1 },
            ]
        })
        .collect();

    for threads in [1, 4] {
        let engine = KgEngine::with_filter(Arc::clone(&model), fi.clone())
            .threads(threads)
            .block(mixed.len())
            .linger(Duration::from_secs(60))
            .policy(KernelPolicy::Exact)
            .build();
        let tickets: Vec<_> =
            mixed.iter().map(|&op| submit_with_backoff(&engine, 0, op).0).collect();
        for (ticket, &op) in tickets.into_iter().zip(&mixed) {
            assert_eq!(ticket.wait_result().expect("answered"), reference(&*model, &fi, op));
        }
        let stats = engine.stats();
        assert_eq!(
            (stats.blocks_cut, stats.queries_served),
            (1, 12),
            "{threads} worker(s): six tails and six heads must share one block: {stats:?}"
        );
    }
}

/// The constant scorer: every rank is pure tie counting, every top-k is
/// pure id tie-breaking — the all-ties case the deterministic ordering
/// contract exists for.
#[test]
fn constant_scorer_all_ties_is_deterministic() {
    let ops: Vec<Op> = (0..N_ENTITIES)
        .flat_map(|i| {
            [
                Op::RankTail { h: i, r: 1, t: (i * 7) % N_ENTITIES },
                Op::TopKTails { h: i, r: 0, k: 5 },
                Op::TopKHeads { r: 1, t: i, k: N_ENTITIES + 3 },
            ]
        })
        .collect();
    for threads in [1usize, 3, 8] {
        assert_serve_matches_reference(Arc::new(Flat { n: N_ENTITIES }), "Flat", &ops, threads, 16);
    }
}

/// A shared `Arc<dyn BatchScorer + Send + Sync>` model — the
/// object-safety satellite end to end: the same trait object backs the
/// engine and the reference path.
#[test]
fn arc_dyn_model_serves_bit_identically() {
    let mut rng = SeededRng::new(0xA2C);
    let shared: Arc<dyn BatchScorer + Send + Sync> = Arc::new(BlmModel::new(
        classics::simple(),
        Embeddings::init(N_ENTITIES, N_RELATIONS, 16, &mut rng),
    ));
    let fi = filter(0xA2C);
    let engine = KgEngine::with_filter(Arc::clone(&shared), fi.clone())
        .threads(4)
        .block(8)
        .policy(KernelPolicy::Exact)
        .build();
    for i in 0..10 {
        let (h, r, t) = (i * 3 % N_ENTITIES, i % N_RELATIONS, (i * 11 + 1) % N_ENTITIES);
        assert_eq!(
            Answer::Rank(engine.rank_tail(h, r, t)),
            reference(&shared, &fi, Op::RankTail { h, r, t })
        );
        assert_eq!(
            Answer::TopK(engine.top_k_heads(r, t, 7)),
            reference(&shared, &fi, Op::TopKHeads { r, t, k: 7 })
        );
    }
}

/// Out-of-range entity ids are rejected at submission, on the caller's
/// thread, instead of poisoning the crew.
#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_entity_is_rejected_at_submit() {
    let engine = KgEngine::with_filter(Flat { n: N_ENTITIES }, FilterIndex::default()).build();
    let _ = engine.rank_tail(N_ENTITIES, 0, 0);
}

/// `builder` learns the relation vocabulary from the graph, so a bad
/// relation id is likewise a caller-side panic, not an engine poisoning.
#[test]
#[should_panic(expected = "relation id")]
fn out_of_range_relation_is_rejected_when_bound_known() {
    let graph = kg_core::Dataset::with_vocab(
        "toy",
        N_ENTITIES,
        N_RELATIONS,
        vec![Triple::new(0, 0, 1)],
        vec![],
        vec![],
    );
    let engine = KgEngine::builder(Flat { n: N_ENTITIES }, &graph).build();
    let _ = engine.top_k_tails(0, N_RELATIONS, 3);
}
