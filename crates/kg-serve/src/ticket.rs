//! Response tickets: the asynchronous half of the serving API.
//!
//! Every `submit_*` call on [`crate::KgEngine`] enqueues the request and
//! returns a ticket immediately; the batching queue answers it once the
//! request's block has been scored. Waiting on a ticket blocks the calling
//! thread only — other clients keep submitting, which is exactly what lets
//! the engine accumulate single queries into full GEMM blocks.
//!
//! A ticket can settle two ways: answered, or failed with a typed
//! [`ServeError`] (the model panicked on that request, the request expired
//! against the engine's deadline, or the engine shut down / was poisoned
//! with it pending). `wait()` panics on failure — the ergonomic choice for
//! the blocking convenience wrappers — while `wait_result()` returns the
//! error for callers that handle overload programmatically.

use crate::admission::ServeError;
use std::sync::{Arc, Condvar, Mutex};

/// A fulfilled request's payload.
#[derive(Debug, Clone)]
pub(crate) enum Reply {
    Score(f32),
    Rank(f64),
    TopK(Vec<(usize, f32)>),
}

/// Lifecycle of one request inside the engine.
#[derive(Debug)]
enum State {
    /// Queued or in flight.
    Pending,
    /// Answered; the payload waits for `wait()`.
    Ready(Reply),
    /// The engine could not answer — deadline expiry, a model panic, or
    /// shutdown/poisoning. `wait()` propagates this as a panic (as the
    /// offline evaluators re-raise a model panic); `wait_result()` returns
    /// it.
    Failed(ServeError),
}

/// Shared slot between one ticket and the engine.
#[derive(Debug)]
pub(crate) struct TicketInner {
    state: Mutex<State>,
    cv: Condvar,
}

impl TicketInner {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketInner { state: Mutex::new(State::Pending), cv: Condvar::new() })
    }

    /// Answer the request (engine side).
    pub(crate) fn fulfill(&self, reply: Reply) {
        let mut state = self.state.lock().expect("ticket lock");
        *state = State::Ready(reply);
        self.cv.notify_all();
    }

    /// Mark the request unanswerable (engine side); a ticket already
    /// answered keeps its answer.
    pub(crate) fn fail(&self, why: ServeError) {
        let mut state = self.state.lock().expect("ticket lock");
        if matches!(*state, State::Pending) {
            *state = State::Failed(why);
            self.cv.notify_all();
        }
    }

    /// `true` once the engine has answered or failed this request.
    pub(crate) fn is_settled(&self) -> bool {
        !matches!(*self.state.lock().expect("ticket lock"), State::Pending)
    }

    /// Block until settled.
    fn wait_reply(&self) -> Result<Reply, ServeError> {
        let mut state = self.state.lock().expect("ticket lock");
        loop {
            match &*state {
                State::Pending => state = self.cv.wait(state).expect("ticket wait"),
                State::Ready(reply) => return Ok(reply.clone()),
                State::Failed(why) => return Err(why.clone()),
            }
        }
    }
}

macro_rules! ticket_type {
    ($(#[$doc:meta])* $name:ident, $out:ty, $variant:ident) => {
        $(#[$doc])*
        #[derive(Debug)]
        #[must_use = "a ticket does nothing until waited on"]
        pub struct $name {
            pub(crate) inner: Arc<TicketInner>,
        }

        impl $name {
            /// Block until the engine answers this request and return the
            /// result.
            ///
            /// # Panics
            /// Panics if the request cannot be answered: a scoring worker
            /// panicked (the panic propagates here instead of deadlocking
            /// the crew), the request expired against the engine's
            /// deadline, or the engine was dropped with this request still
            /// pending. Use [`Self::wait_result`] to handle those as
            /// values.
            pub fn wait(self) -> $out {
                match self.inner.wait_reply() {
                    Ok(Reply::$variant(v)) => v,
                    Ok(other) => unreachable!("ticket answered with mismatched reply {other:?}"),
                    Err(why) => panic!("kg-serve request failed: {why}"),
                }
            }

            /// Block until the engine settles this request: the answer, or
            /// the typed [`ServeError`] it failed with — deadline expiry
            /// ([`ServeError::Expired`]) being the one clients under
            /// overload are expected to see and handle.
            pub fn wait_result(self) -> Result<$out, ServeError> {
                match self.inner.wait_reply()? {
                    Reply::$variant(v) => Ok(v),
                    other => unreachable!("ticket answered with mismatched reply {other:?}"),
                }
            }

            /// `true` once the engine has settled this request (answered
            /// it, or failed it) — a non-blocking probe: once it returns
            /// `true`, `wait()` returns (or propagates the failure)
            /// without blocking. Useful for polling many outstanding
            /// tickets without committing a thread to each.
            pub fn is_settled(&self) -> bool {
                self.inner.is_settled()
            }
        }
    };
}

ticket_type!(
    /// Pending answer to a [`crate::KgEngine::submit_score`] request.
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings};
    /// let mut rng = kg_linalg::SeededRng::new(5);
    /// let model = BlmModel::new(classics::distmult(), Embeddings::init(12, 2, 8, &mut rng));
    /// let reference = kg_models::LinkPredictor::score_triple(&model, 3, 1, 7);
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let ticket = engine.submit_score(3, 1, 7).expect("admitted");
    /// assert_eq!(ticket.wait(), reference);
    /// ```
    ScoreTicket,
    f32,
    Score
);

ticket_type!(
    /// Pending answer to a [`crate::KgEngine::submit_rank_tail`] /
    /// [`crate::KgEngine::submit_rank_head`] request.
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings};
    /// let mut rng = kg_linalg::SeededRng::new(6);
    /// let model = BlmModel::new(classics::complex(), Embeddings::init(12, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// // Submit first, wait later: both directions rank concurrently.
    /// let tail = engine.submit_rank_tail(0, 1, 5).expect("admitted");
    /// let head = engine.submit_rank_head(0, 1, 5).expect("admitted");
    /// assert!(tail.wait() >= 1.0 && head.wait() >= 1.0);
    /// ```
    RankTicket,
    f64,
    Rank
);

ticket_type!(
    /// Pending answer to a [`crate::KgEngine::submit_top_k_tails`] /
    /// [`crate::KgEngine::submit_top_k_heads`] request.
    ///
    /// ```
    /// use kg_models::{blm::classics, BlmModel, Embeddings};
    /// let mut rng = kg_linalg::SeededRng::new(7);
    /// let model = BlmModel::new(classics::simple(), Embeddings::init(12, 2, 8, &mut rng));
    /// let engine = kg_serve::KgEngine::with_filter(model, Default::default()).build();
    /// let ticket = engine.submit_top_k_tails(2, 0, 3).expect("admitted");
    /// assert_eq!(ticket.wait_result().expect("answered").len(), 3);
    /// ```
    TopKTicket,
    Vec<(usize, f32)>,
    TopK
);
