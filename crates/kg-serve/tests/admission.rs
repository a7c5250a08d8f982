//! Admission-control guarantees of [`KgEngine`]: queue caps shed at the
//! door with a typed error and a usable backoff hint, deadlines expire
//! stale requests before the crew scores them, block cuts round-robin
//! across client lanes (and anonymous traffic stays strictly FIFO), and
//! the overload counters + latency
//! histograms account for every request exactly once.

use kg_serve::{KgEngine, RequestClass, ServeError, SubmitError};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 12;

/// A model slow enough (~20 ms per scored row) that queued requests
/// reliably outwait tiny deadlines and queues reliably back up behind
/// tiny caps.
struct Slow {
    scored: Arc<AtomicUsize>,
}

impl kg_models::LinkPredictor for Slow {
    fn n_entities(&self) -> usize {
        N
    }
    fn score_triple(&self, _: usize, _: usize, _: usize) -> f32 {
        0.0
    }
    fn score_tails(&self, _: usize, _: usize, out: &mut [f32]) {
        std::thread::sleep(Duration::from_millis(20));
        self.scored.fetch_add(1, Relaxed);
        out.fill(1.0);
    }
    fn score_heads(&self, _: usize, _: usize, out: &mut [f32]) {
        self.score_tails(0, 0, out);
    }
}

impl kg_models::BatchScorer for Slow {}

fn slow_engine() -> (KgEngine, Arc<AtomicUsize>) {
    let scored = Arc::new(AtomicUsize::new(0));
    let engine = KgEngine::with_filter(Slow { scored: Arc::clone(&scored) }, Default::default());
    (engine.threads(1).block(1).build(), scored)
}

/// A full class queue sheds at the door: the submit call itself returns
/// `SubmitError::Shed` with the observed depth and a non-degenerate
/// retry hint, nothing is enqueued, and other classes stay open.
#[test]
fn full_queue_sheds_with_typed_error_and_backoff_hint() {
    let scored = Arc::new(AtomicUsize::new(0));
    let engine = KgEngine::with_filter(Slow { scored }, Default::default())
        .threads(1)
        .block(1)
        .max_queued(RequestClass::Tails, 2)
        .build();
    // Saturate: one query occupies the crew (~20 ms), then fill the
    // 2-deep tail queue behind it.
    let mut tickets = vec![engine.submit_rank_tail(0, 0, 1).expect("first admitted")];
    let mut shed = None;
    for i in 0..8 {
        match engine.submit_rank_tail(i % N, 0, 1) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                shed = Some(e);
                break;
            }
        }
    }
    let SubmitError::Shed { class, depth, retry_after } = shed.expect("cap 2 must shed a burst");
    assert_eq!(class, RequestClass::Tails);
    assert!(depth >= 2, "shed below the cap: depth {depth}");
    assert!(
        retry_after >= Duration::from_micros(10) && retry_after <= Duration::from_secs(1),
        "retry hint outside its clamp: {retry_after:?}"
    );
    // The shed request never entered the engine; the head queue is
    // unaffected by the full tail queue.
    let head = engine.submit_rank_head(1, 0, 2).expect("other classes stay open");
    for t in tickets {
        assert!(t.wait() >= 1.0);
    }
    assert!(head.wait() >= 1.0);
    let stats = engine.stats();
    assert!(stats.queries_shed >= 1);
    assert_eq!(stats.depth_tails, 0, "shed submissions must not leave depth behind");
    // Shed requests are not settled requests: they appear in no other
    // counter and no histogram.
    assert_eq!(
        stats.queries_served + stats.queries_failed + stats.queries_expired,
        stats.latency_score.count() + stats.latency_tails.count() + stats.latency_heads.count(),
        "histograms must record exactly the settled requests"
    );
}

/// Requests that outwait the deadline expire unscored — typed
/// `ServeError::Expired` with the real wait, counted as expired (not
/// failed) — while requests the crew reaches in time are still answered.
#[test]
fn stale_requests_expire_before_scoring() {
    let scored = Arc::new(AtomicUsize::new(0));
    let engine = KgEngine::with_filter(Slow { scored: Arc::clone(&scored) }, Default::default())
        .threads(1)
        .block(1)
        .deadline(Duration::from_millis(50))
        .build();
    // The first request is cut from an empty queue immediately (waited
    // ≈ 0; 50 ms covers a dispatcher descheduled on a loaded host), then
    // each block of one occupies the crew for ≥ 20 ms — the third follower
    // waits ≥ 60 ms for its cut, past the deadline, and so do the two
    // behind it.
    let tickets: Vec<_> =
        (0..6).map(|i| engine.submit_rank_tail(i % N, 0, 1).expect("admitted")).collect();
    let mut answered = 0;
    let mut expired = 0;
    for ticket in tickets {
        match ticket.wait_result() {
            Ok(rank) => {
                assert!(rank >= 1.0);
                answered += 1;
            }
            Err(err @ ServeError::Expired { class, waited, deadline }) => {
                assert!(err.is_expired());
                assert_eq!(class, RequestClass::Tails);
                assert_eq!(deadline, Duration::from_millis(50));
                assert!(waited > deadline, "expired without outwaiting: {waited:?}");
                expired += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(answered >= 1, "the front request must be scored");
    assert!(expired >= 1, "a 20 ms crew with a 50 ms deadline must expire the backlog");
    let stats = engine.stats();
    assert_eq!(stats.queries_served, answered);
    assert_eq!(stats.queries_expired, expired);
    assert_eq!(stats.queries_failed, 0, "expiry is not an engine failure");
    // Expired requests never reached the crew.
    assert_eq!(scored.load(Relaxed) as u64, answered);
}

/// A flooding client's backlog cannot monopolise block cuts: a late second
/// client's request rides the very next cut, jumping the flooder's queue,
/// and the mixed cut is counted — whichever direction it asks in, since
/// tail and head queries wait in one row queue.
#[test]
fn fair_dequeue_interleaves_clients_within_a_class() {
    for late_head in [false, true] {
        let scored = Arc::new(AtomicUsize::new(0));
        let engine =
            KgEngine::with_filter(Slow { scored }, Default::default()).threads(1).block(2).build();
        let flooder = engine.client(1);
        let latecomer = engine.client(2);
        // The flooder queues a deep tail backlog (the first occupies the
        // crew).
        let flood: Vec<_> =
            (0..8).map(|i| flooder.submit_rank_tail(i % N, 0, 1).expect("admitted")).collect();
        let late = if late_head {
            latecomer.submit_rank_head(5, 0, 1)
        } else {
            latecomer.submit_rank_tail(5, 0, 1)
        };
        // Fairness makes the latecomer's lone request ride an early cut
        // instead of waiting out all 8 flooded requests: when it settles, a
        // strict-FIFO engine would have had to score the whole flood first.
        let _ = late.expect("admitted").wait();
        let scored_at_late = {
            let stats = engine.stats();
            assert!(stats.fair_cuts >= 1, "no cut mixed the two clients (head: {late_head})");
            stats.queries_served
        };
        assert!(
            scored_at_late < 9,
            "latecomer (head: {late_head}) settled only after the full flood \
             ({scored_at_late} served) — round-robin never cut ahead of the flooder's lane"
        );
        for t in flood {
            assert!(t.wait() >= 1.0, "fairness must not starve the flooder either");
        }
    }
}

/// Fairness is decided by the input, not by an option: submissions made
/// without [`KgEngine::client`] share the one anonymous lane whichever
/// thread makes them, so settles follow strict arrival order — a second
/// submitter's lone request waits out the first one's entire flood (the
/// arrival pattern round-robin lanes would reorder) and no cut counts as
/// mixed.
#[test]
fn anonymous_submissions_settle_in_strict_fifo() {
    let scored = Arc::new(AtomicUsize::new(0));
    let engine =
        KgEngine::with_filter(Slow { scored }, Default::default()).threads(1).block(2).build();
    // Two submitter threads on one engine, the flood joined before the
    // latecomer starts; neither uses a client key.
    let (flood, late) = std::thread::scope(|scope| {
        let flooder = scope.spawn(|| {
            (0..6)
                .map(|i| engine.submit_rank_tail(i % N, 0, 1).expect("admitted"))
                .collect::<Vec<_>>()
        });
        let flood = flooder.join().expect("flooder");
        let latecomer = scope.spawn(|| engine.submit_rank_tail(5, 0, 1).expect("admitted"));
        (flood, latecomer.join().expect("latecomer"))
    });
    let _ = late.wait();
    let stats = engine.stats();
    assert_eq!(stats.fair_cuts, 0, "anonymous traffic must never count a mixed cut");
    assert_eq!(stats.queries_served, 7, "strict FIFO: the whole flood settles first");
    for t in flood {
        assert!(t.wait() >= 1.0);
    }
}

/// The per-class latency histograms record one sample per settled request
/// in the right class, and their quantiles reflect real waits.
#[test]
fn latency_histograms_account_per_class() {
    let (engine, _) = slow_engine();
    for i in 0..4 {
        assert!(engine.rank_tail(i % N, 0, 1) >= 1.0);
    }
    assert!(engine.rank_head(1, 0, 2) >= 1.0);
    assert_eq!(engine.score(0, 0, 1), 0.0);
    let stats = engine.stats();
    assert_eq!(stats.latency_tails.count(), 4);
    assert_eq!(stats.latency_heads.count(), 1);
    assert_eq!(stats.latency_score.count(), 1);
    // A ~20 ms scored row cannot settle in under a millisecond, and a
    // settled request always has a positive quantile.
    let p50 = stats.latency_tails.quantile(0.5).expect("non-empty histogram");
    assert!(p50 >= Duration::from_millis(1), "tail p50 {p50:?} below the model's floor");
    assert!(stats.latency_score.quantile(1.0).expect("non-empty") > Duration::ZERO);
}
