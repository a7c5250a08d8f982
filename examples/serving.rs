//! Online serving: train a model once, then answer single link-prediction
//! requests from many concurrent clients through the [`KgEngine`] facade —
//! the query-batching, latency-aware frontend over the sharded scoring
//! engine.
//!
//! The engine accumulates whatever is pending (across all clients) into
//! 64-query GEMM blocks and shards each block over a persistent worker
//! crew, so heavy single-query traffic gets the same locality wins as
//! offline batch evaluation, while every answer stays bit-identical to the
//! per-query reference. One scheduler option is shown — a small `linger`
//! budget (an under-filled block waits a bounded time for co-batchable
//! queries) — and one thing the dispatcher decides by itself: whenever tail
//! and head queries are both queued it drains them concurrently on half
//! crews. The engine's own stats snapshot reports how the scheduler did.
//!
//! The second half overloads a deliberately small engine to show the
//! admission controls: a bounded queue sheds at the door with
//! [`kg_serve::SubmitError::Shed`] (handled here with retry-after
//! backoff), a deadline expires stale requests before they waste crew
//! time, and the per-class latency histograms report what admitted
//! traffic actually experienced.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use kg_datagen::{preset, Preset, Scale};
use kg_models::blm::classics;
use kg_serve::{KgEngine, LatencyHistogram, RequestClass, SubmitError};
use kg_train::{TrainConfig, Trainer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Render a settled-latency histogram as its headline quantiles.
fn quantiles(hist: &LatencyHistogram) -> String {
    match (hist.quantile(0.5), hist.quantile(0.99)) {
        (Some(p50), Some(p99)) => {
            format!("{} samples, p50 ≤ {p50:?}, p99 ≤ {p99:?}", hist.count())
        }
        _ => "no samples".to_string(),
    }
}

fn main() {
    // 1. Train a ComplEx-structured bilinear model on a synthetic graph.
    let ds = preset(Preset::Wn18rrLike, Scale::Tiny, 7);
    let cfg = TrainConfig { dim: 32, epochs: 20, lr: 0.3, l2: 1e-4, ..Default::default() };
    println!("training ComplEx: d={} epochs={}", cfg.dim, cfg.epochs);
    let model = Trainer::new(cfg).train(&classics::complex(), &ds);
    let queries: Vec<(usize, usize, usize)> =
        ds.test.iter().map(|tr| (tr.h.idx(), tr.r.idx(), tr.t.idx())).collect();

    // 2. Spin up the serving engine: 4 shard workers, 64-query blocks and a
    //    200 µs linger budget so trickling queries still fill blocks. The
    //    mixed tail/head traffic below shares blocks: each block holds
    //    both directions in arrival order, scored in one pass per worker.
    let engine = Arc::new(
        KgEngine::builder(model, &ds)
            .threads(4)
            .block(64)
            .linger(Duration::from_micros(200))
            .build(),
    );
    println!(
        "engine up: {} entities, {} workers, block {}",
        engine.n_entities(),
        engine.threads(),
        engine.block()
    );

    // 3. Request-level calls — what an application would do per user query.
    let (h, r, t) = queries[0];
    println!("\nscore({h}, {r}, {t})      = {:+.4}", engine.score(h, r, t));
    println!("rank_tail({h}, {r}, {t})  = {}", engine.rank_tail(h, r, t));
    println!("rank_head({h}, {r}, {t})  = {}", engine.rank_head(h, r, t));
    println!("top_k_tails({h}, {r}, 3) = {:?}", engine.top_k_tails(h, r, 3));

    // 4. Many concurrent clients: each thread fires its own single-query
    //    requests; the engine's queue batches whatever overlaps in flight.
    let n_clients = 8;
    let start = Instant::now();
    let total: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..n_clients {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            handles.push(scope.spawn(move || {
                let mut served = 0;
                for &(h, r, t) in queries.iter().skip(c).step_by(n_clients) {
                    // Submit both directions, then wait — tickets overlap
                    // across clients, so blocks fill up.
                    let tail = engine.submit_rank_tail(h, r, t).expect("admitted");
                    let head = engine.submit_rank_head(h, r, t).expect("admitted");
                    let (rt, rh) = (tail.wait(), head.wait());
                    assert!(rt >= 1.0 && rh >= 1.0);
                    served += 2;
                }
                served
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client panicked")).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    println!(
        "\n{n_clients} clients served {total} rank queries in {:.1} ms ({:.0} queries/s)",
        secs * 1e3,
        total as f64 / secs
    );

    // 5. The scheduler's own accounting: how full the batching queue cut
    //    its blocks, and how well the double-buffered pipeline kept both
    //    stages busy (blocks dispatched before their predecessor was
    //    answered, vs. dispatcher and crew idle transitions).
    let stats = engine.stats();
    println!(
        "scheduler: {} served, {} blocks (mean fill {:.1})",
        stats.queries_served, stats.blocks_cut, stats.mean_block_fill
    );
    println!(
        "pipeline:  {} blocks overlapped, {} lead-idle waits, {} crew-idle gaps",
        stats.blocks_overlapped, stats.lead_idle, stats.crew_idle
    );
    println!(
        "latency:   tails {} | heads {}",
        quantiles(&stats.latency_tails),
        quantiles(&stats.latency_heads)
    );

    // 6. Overload behaviour: a deliberately tiny engine — one worker,
    //    small blocks, a 32-deep tail queue, a 2 ms deadline — under a
    //    burst far past its capacity. Sheds come back on the submit call
    //    itself with a backoff hint; expiries come back through the
    //    ticket as typed errors instead of slow answers.
    let model =
        Trainer::new(TrainConfig { dim: 32, epochs: 1, lr: 0.3, l2: 1e-4, ..Default::default() })
            .train(&classics::complex(), &ds);
    let small = KgEngine::builder(model, &ds)
        .threads(1)
        .block(8)
        .max_queued(RequestClass::Tails, 32)
        .deadline(Duration::from_millis(2))
        .build();
    println!("\noverload: 1 worker, block 8, tail cap 32, 2 ms deadline");

    let mut tickets = Vec::new();
    let (mut sheds, mut backoff_total) = (0u64, Duration::ZERO);
    for &(h, r, t) in queries.iter().cycle().take(400) {
        // The admission loop every well-behaved client runs: on `Shed`,
        // sleep out the engine's own backlog estimate, then resubmit.
        loop {
            match small.submit_rank_tail(h, r, t) {
                Ok(ticket) => {
                    tickets.push(ticket);
                    break;
                }
                Err(SubmitError::Shed { class, depth, retry_after }) => {
                    sheds += 1;
                    backoff_total += retry_after;
                    if sheds == 1 {
                        println!(
                            "first shed: {class} queue at depth {depth}, retry in {retry_after:?}"
                        );
                    }
                    std::thread::sleep(retry_after);
                }
            }
        }
    }
    let (mut answered, mut expired) = (0u64, 0u64);
    for ticket in tickets {
        match ticket.wait_result() {
            Ok(rank) => {
                assert!(rank >= 1.0);
                answered += 1;
            }
            Err(err) if err.is_expired() => expired += 1,
            Err(err) => panic!("overload must only shed or expire, got: {err}"),
        }
    }
    let stats = small.stats();
    println!(
        "of 400 submissions: {answered} answered, {expired} expired, \
         {sheds} sheds ({backoff_total:?} total backoff)"
    );
    println!(
        "admission: shed={} expired={} served={} | tail latency {}",
        stats.queries_shed,
        stats.queries_expired,
        stats.queries_served,
        quantiles(&stats.latency_tails)
    );
    assert_eq!(stats.queries_served + stats.queries_expired, answered + expired);
}
