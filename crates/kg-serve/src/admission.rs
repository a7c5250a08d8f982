//! Admission control vocabulary: the typed overload errors and the
//! per-class latency histogram.
//!
//! The serving engine never queues without bound. Each request class has a
//! queue cap ([`crate::KgEngineBuilder::max_queued`]): a submission against
//! a full queue is **shed** on the caller's thread with
//! [`SubmitError::Shed`] — the request never enters the engine, and the
//! error carries a `retry_after` hint sized from the backlog it would have
//! waited behind. An optional deadline
//! ([`crate::KgEngineBuilder::deadline`]) additionally **expires** admitted
//! requests that have already waited longer than the deadline when their
//! block is cut, failing the ticket with [`ServeError::Expired`] *before*
//! any crew time is spent scoring them. Together the two bound both queue
//! memory and queueing delay: under sustained overload, every admitted
//! request is answered within a bounded time and every over-capacity
//! request fails fast instead of stretching the tail.

use std::fmt;
use std::time::Duration;

/// Which queue a request waits in — triple scores, tail row queries or
/// head row queries. Triple scores batch together; row queries of both
/// directions share one block, cut in arrival order across the two row
/// queues. Queue caps, depth counters and latency histograms are all kept
/// per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Single-triple plausibility scores ([`crate::KgEngine::submit_score`]).
    Score,
    /// Tail-row queries: `rank_tail` and `top_k_tails`.
    Tails,
    /// Head-row queries: `rank_head` and `top_k_heads`.
    Heads,
}

impl RequestClass {
    /// All classes, in the engine's canonical order (the order
    /// [`crate::EngineStats`] reports depths and histograms in).
    pub const ALL: [RequestClass; 3] =
        [RequestClass::Score, RequestClass::Tails, RequestClass::Heads];
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RequestClass::Score => "score",
            RequestClass::Tails => "tails",
            RequestClass::Heads => "heads",
        })
    }
}

/// Why a `submit_*` call refused to enqueue — returned on the **caller's
/// thread**, before the request enters the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request's class queue is at its [`crate::KgEngineBuilder::max_queued`]
    /// cap. Nothing was enqueued and no ticket exists; the caller should
    /// back off for roughly `retry_after` before resubmitting.
    Shed {
        /// The class whose queue was full.
        class: RequestClass,
        /// The class queue's depth observed at the submit attempt (≥ the
        /// cap).
        depth: usize,
        /// A backoff hint: the engine's estimate of how long the backlog
        /// ahead of a new request would take to drain — for a row query,
        /// both row queues, which share its blocks — from the recent mean
        /// block service time. A *hint*, not a guarantee —
        /// resubmitting after `retry_after` may still shed if other
        /// clients refilled the queue first, but honouring it keeps a
        /// rejected client from hot-looping on a full engine.
        retry_after: Duration,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Shed { class, depth, retry_after } => write!(
                f,
                "request shed: {class} queue at capacity (depth {depth}); retry after {retry_after:?}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an **admitted** request's ticket settled without an answer —
/// returned by the `wait_result` ticket methods (plain `wait` panics with
/// the same rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request sat in its queue past the engine's
    /// [`crate::KgEngineBuilder::deadline`]: the dispatcher dropped it when
    /// cutting its block, before any crew time was spent scoring it.
    Expired {
        /// The class the request was queued in.
        class: RequestClass,
        /// How long it had waited when the dispatcher examined it.
        waited: Duration,
        /// The engine's configured deadline.
        deadline: Duration,
    },
    /// The engine could not answer: the model panicked on this request,
    /// the engine shut down with it pending, or an infrastructure failure
    /// poisoned the engine. The message carries the original cause.
    Failed(String),
}

impl ServeError {
    /// Shorthand constructor for the infrastructure/shutdown/panic case.
    pub(crate) fn failed(why: impl Into<String>) -> ServeError {
        ServeError::Failed(why.into())
    }

    /// `true` for the deadline-shedding case — the one failure a client
    /// under overload should treat as load feedback rather than an error.
    pub fn is_expired(&self) -> bool {
        matches!(self, ServeError::Expired { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Expired { class, waited, deadline } => write!(
                f,
                "request expired unscored: waited {waited:?} in the {class} queue \
                 against a {deadline:?} deadline"
            ),
            ServeError::Failed(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for ServeError {}

/// Number of buckets in a [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 32;

/// Width of bucket 0 in nanoseconds; every later bucket doubles, so the 32
/// buckets span 250 ns to ~17 minutes — the full plausible submit→settle
/// range at log-spaced resolution.
const BUCKET0_NANOS: u64 = 250;

/// The bucket a latency of `nanos` lands in: log₂-spaced, bucket `i`
/// covering roughly `[250ns · 2^i, 250ns · 2^(i+1))`, with the first and
/// last buckets absorbing the tails.
pub(crate) fn bucket_index(nanos: u64) -> usize {
    ((nanos / BUCKET0_NANOS).max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1)
}

/// A fixed-bucket, log-spaced latency histogram: one submit→settle sample
/// per settled request (answered, expired or failed), kept per request
/// class. Snapshots come from [`crate::EngineStats`]; recording is
/// lock-free on the engine side, so the histograms cost the hot path one
/// relaxed atomic increment per settle.
///
/// ```
/// # use kg_models::{blm::classics, BlmModel, Embeddings};
/// # let mut rng = kg_linalg::SeededRng::new(41);
/// # let model = BlmModel::new(classics::simple(), Embeddings::init(10, 2, 8, &mut rng));
/// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
/// for i in 0..10 {
///     let _ = engine.rank_tail(i % 10, 0, (i + 1) % 10);
/// }
/// let hist = engine.stats().latency_tails;
/// assert_eq!(hist.count(), 10);
/// assert!(hist.quantile(0.99).expect("non-empty") > std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts; bucket `i` covers [`LatencyHistogram::bucket_bounds`]`(i)`.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Total settled requests recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The latency range bucket `i` covers: `(lower, upper]` — log-spaced,
    /// doubling per bucket from 500 ns. The first bucket's lower bound is
    /// zero and the last bucket absorbs everything beyond its lower bound.
    ///
    /// # Panics
    /// Panics if `i >= LATENCY_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (Duration, Duration) {
        assert!(i < LATENCY_BUCKETS, "bucket {i} out of range");
        let lower = if i == 0 { 0 } else { BUCKET0_NANOS << i };
        (Duration::from_nanos(lower), Duration::from_nanos(BUCKET0_NANOS << (i + 1)))
    }

    /// An upper bound on the `q`-quantile latency (`0.0 < q <= 1.0`): the
    /// upper edge of the bucket the quantile sample falls in, so the true
    /// quantile is at most one log-spaced bucket (2×) below the returned
    /// value. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(LatencyHistogram::bucket_bounds(i).1);
            }
        }
        Some(LatencyHistogram::bucket_bounds(LATENCY_BUCKETS - 1).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log_spaced_and_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(249), 0);
        assert_eq!(bucket_index(250), 0);
        assert_eq!(bucket_index(500), 1);
        assert_eq!(bucket_index(1_000), 2);
        // Microsecond-scale doubling: each bucket is exactly one octave.
        for i in 1..LATENCY_BUCKETS - 1 {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert_eq!(bucket_index(lo.as_nanos() as u64), i);
            assert_eq!(bucket_index(hi.as_nanos() as u64 - 1), i);
        }
        // Way past the last bucket's range: clamped, never out of bounds.
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantile_walks_the_cumulative_counts() {
        let mut hist = LatencyHistogram { buckets: [0; LATENCY_BUCKETS] };
        assert_eq!(hist.quantile(0.5), None);
        hist.buckets[3] = 98; // ~2-4 µs
        hist.buckets[10] = 2; // ~256-512 µs
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.quantile(0.5), Some(LatencyHistogram::bucket_bounds(3).1));
        assert_eq!(hist.quantile(0.98), Some(LatencyHistogram::bucket_bounds(3).1));
        assert_eq!(hist.quantile(0.99), Some(LatencyHistogram::bucket_bounds(10).1));
        assert_eq!(hist.quantile(1.0), Some(LatencyHistogram::bucket_bounds(10).1));
    }

    #[test]
    fn errors_render_their_cause() {
        let shed = SubmitError::Shed {
            class: RequestClass::Tails,
            depth: 64,
            retry_after: Duration::from_micros(300),
        };
        let msg = shed.to_string();
        assert!(msg.contains("tails") && msg.contains("64") && msg.contains("retry"));
        let expired = ServeError::Expired {
            class: RequestClass::Score,
            waited: Duration::from_millis(7),
            deadline: Duration::from_millis(5),
        };
        assert!(expired.is_expired());
        assert!(expired.to_string().contains("expired"));
        // `Failed` passes the original cause through verbatim — ticket
        // panic messages rely on this.
        assert_eq!(ServeError::failed("engine shut down").to_string(), "engine shut down");
        assert!(!ServeError::failed("x").is_expired());
    }
}
