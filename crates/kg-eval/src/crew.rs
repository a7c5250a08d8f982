//! The one threading primitive of `kg-eval` and `kg-train`: a lockstep
//! crew ([`run`]) and an ordered work-queue fan-out ([`fan_out`]).
//!
//! # The lockstep crew
//!
//! [`run`] makes the calling thread worker 0 (the *lead*), spawns the other
//! `n − 1` workers once as scoped threads, and gives every participant a
//! [`Seat`] at **one** reusable barrier. Work between two rendezvous goes
//! through [`Seat::phase`]; every participant must issue the same sequence
//! of phases, so a running count of barriers attended names each
//! rendezvous for the whole crew. Its one caller is the training crew,
//! which opens one crew per training epoch (two or three barriers per
//! step); the parallel rankers and candidate training need no rendezvous
//! and run on [`fan_out`].
//!
//! # Poison
//!
//! `Barrier` has no poisoning: a participant that unwound mid-phase would
//! strand the rest at the next rendezvous. So a phase runs under
//! `catch_unwind`, and a panicking participant
//!
//! 1. **tags before it attends**: `fetch_min`s the crew's one poison word
//!    with the index of the barrier it is about to attend as its last —
//!    the barrier's own synchronisation then makes the tag visible to
//!    everyone who crosses that barrier;
//! 2. attends that barrier, so nobody waits for it in vain;
//! 3. leaves ([`Seat::phase`] returns `None`), and its original payload is
//!    re-raised by [`run`] once the whole crew has been joined.
//!
//! Everyone else checks the word after every barrier and **leaves only at
//! the tagged barrier** (`tag < barriers attended`). A tag set by a fast
//! participant already one phase ahead is still *ahead* of the count of the
//! slow ones waking from the previous barrier, so they attend one more
//! rendezvous instead of bailing out early and stranding the panicker — a
//! plain poisoned flag, or a tag scoped to a multi-barrier step, races
//! exactly that way. A panic outside any phase is only legal after the
//! participant's last rendezvous, where it is re-raised without waiting.
//!
//! # Not `kg-serve`
//!
//! `kg-serve` keeps its own crew: a channel-driven job pool whose failure
//! mode is "fail one ticket and keep serving", not a lockstep crew that
//! re-raises. Putting it on this primitive would make
//! the shared code branch on its caller.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;

/// What the crew shares: the barrier and the poison word. The word carries
/// no data of its own — the barrier orders every access to it — hence
/// `Relaxed`.
struct Rendezvous {
    barrier: Barrier,
    /// `usize::MAX` while healthy, else the lowest tagged barrier index.
    poison: AtomicUsize,
}

/// One participant's place at the crew's barrier (see the module docs).
pub struct Seat<'a> {
    crew: &'a Rendezvous,
    /// Barriers attended so far — the index of the next one.
    attended: usize,
    /// This participant's own panic, held for [`run`] to re-raise.
    payload: Option<Box<dyn Any + Send>>,
}

impl Seat<'_> {
    /// Run `work`, then attend the crew's next rendezvous. `Some` carries
    /// `work`'s result across the barrier; `None` means the crew is
    /// poisoned at the barrier just crossed — `work` panicked here or
    /// elsewhere — and the caller must return without starting another
    /// phase.
    pub fn phase<T>(&mut self, work: impl FnOnce() -> T) -> Option<T> {
        let result = catch_unwind(AssertUnwindSafe(work));
        if result.is_err() {
            self.crew.poison.fetch_min(self.attended, Relaxed);
        }
        self.crew.barrier.wait();
        self.attended += 1;
        match result {
            Ok(value) if self.crew.poison.load(Relaxed) >= self.attended => Some(value),
            Ok(_) => None,
            Err(payload) => {
                self.payload = Some(payload);
                None
            }
        }
    }
}

/// Run a lockstep crew of `n`: `lead` on the calling thread as worker 0,
/// `crew(w, seat)` on a scoped thread for each `w` in `1..n`, all spawned
/// once and joined before this returns. The two closures must issue the
/// same [`Seat::phase`] sequence — callers pass one step function to both;
/// they are separate closures only because the lead runs on the caller's
/// thread and may therefore borrow mutably and hold non-`Send` state (the
/// trainer's epoch loop, with the optimiser it steps), which a shared
/// `Sync` closure could not.
///
/// Returns `lead`'s result, or re-raises the original payload of the first
/// participant that panicked (spawned workers in index order, then the
/// lead).
pub fn run<R>(
    n: usize,
    lead: impl FnOnce(&mut Seat<'_>) -> R,
    crew: impl Fn(usize, &mut Seat<'_>) + Sync,
) -> R {
    assert!(n > 0, "a crew needs at least one participant");
    let shared = Rendezvous { barrier: Barrier::new(n), poison: AtomicUsize::new(usize::MAX) };
    let new_seat = || Seat { crew: &shared, attended: 0, payload: None };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n)
            .map(|w| {
                let (new_seat, crew) = (&new_seat, &crew);
                std::thread::Builder::new()
                    .name(format!("kg-crew-{w}"))
                    .spawn_scoped(scope, move || {
                        let mut seat = new_seat();
                        crew(w, &mut seat);
                        if let Some(payload) = seat.payload {
                            resume_unwind(payload);
                        }
                    })
                    .expect("spawn crew worker")
            })
            .collect();
        let mut seat = new_seat();
        // A lead panic outside any phase unwinds through the scope, which
        // joins the crew first.
        let result = lead(&mut seat);
        let mut payload = None;
        for handle in handles {
            if let Err(p) = handle.join() {
                payload.get_or_insert(p);
            }
        }
        match payload.or(seat.payload) {
            Some(p) => resume_unwind(p),
            None => result,
        }
    })
}

/// `work(i)` for every `i` in `0..n_items`, on up to `n_threads` threads
/// (the caller is one of them) pulling indices from a shared atomic queue;
/// results come back in item order whatever the interleaving. A panicking
/// item is re-raised with its original payload once every thread is joined.
pub fn fan_out<T: Send>(
    n_threads: usize,
    n_items: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    assert!(n_threads > 0, "need at least one thread");
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Relaxed);
            if i >= n_items {
                break done;
            }
            done.push((i, work(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n_threads.min(n_items)).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A 3-barrier step, three times.
    const BARRIERS: usize = 9;

    /// Where the matrix's victim panics.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum At {
        /// First thing in the phase that ends at barrier `b`: the victim
        /// reaches its last rendezvous early.
        BeforePhase(usize),
        /// Straight after crossing barrier `b` as its *last* arriver —
        /// the top of the next phase, while the rest of the crew is still
        /// waking from `b` with a count one behind the tag.
        AfterBarrier(usize),
        /// After the final rendezvous, outside any phase.
        AfterLastBarrier,
    }

    /// Run `body` on its own thread; fail after 10 s instead of hanging.
    fn under_watchdog<T: Send + 'static>(
        what: String,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(body))));
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what}: crew deadlocked (10 s watchdog)"))
    }

    /// One matrix participant: `BARRIERS` phases, a grenade at `at` when it
    /// is the victim. `left[worker]` records how many barriers it attended.
    fn member(
        worker: usize,
        n: usize,
        victim: usize,
        at: At,
        seat: &mut Seat<'_>,
        left: &[AtomicUsize],
        parked: &[AtomicUsize],
    ) {
        // No panic hook, no formatting: the tag lands as fast as it can.
        let grenade = || resume_unwind(Box::new(format!("grenade {at:?}")));
        let mine = worker == victim;
        for (b, parked) in parked.iter().enumerate() {
            let crossed = seat.phase(|| {
                if mine && (at == At::BeforePhase(b) || b > 0 && at == At::AfterBarrier(b - 1)) {
                    grenade();
                }
                if mine && at == At::AfterBarrier(b) {
                    // Arrive last: the others have announced themselves and
                    // had a few time slices to block in the barrier.
                    while parked.load(SeqCst) < n - 1 {
                        std::thread::yield_now();
                    }
                    (0..8).for_each(|_| std::thread::yield_now());
                } else {
                    parked.fetch_add(1, SeqCst);
                }
            });
            left[worker].store(b + 1, SeqCst);
            if crossed.is_none() {
                return;
            }
        }
        if mine && at == At::AfterLastBarrier {
            grenade();
        }
    }

    #[test]
    fn panic_at_every_position_reraises_and_everyone_leaves_at_the_same_barrier() {
        let mut positions = vec![At::AfterLastBarrier];
        positions.extend((0..BARRIERS).map(At::BeforePhase));
        positions.extend((0..BARRIERS - 1).map(At::AfterBarrier));
        for n in 1..=4 {
            for victim in 0..n {
                for &at in &positions {
                    let what = format!("crew of {n}, victim {victim}, {at:?}");
                    let outcome = under_watchdog(what.clone(), move || {
                        let left: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        let parked: Vec<AtomicUsize> =
                            (0..BARRIERS).map(|_| AtomicUsize::new(0)).collect();
                        let raised = catch_unwind(AssertUnwindSafe(|| {
                            run(
                                n,
                                |seat| member(0, n, victim, at, seat, &left, &parked),
                                |w, seat| member(w, n, victim, at, seat, &left, &parked),
                            )
                        }));
                        (raised, left.iter().map(|l| l.load(SeqCst)).collect::<Vec<_>>())
                    });
                    let (raised, left) = outcome.expect("the harness itself does not panic");
                    let payload = raised.expect_err(&format!("{what}: run must re-raise"));
                    assert_eq!(
                        payload.downcast_ref::<String>(),
                        Some(&format!("grenade {at:?}")),
                        "{what}: original payload"
                    );
                    let expect = match at {
                        At::BeforePhase(b) => b + 1,
                        At::AfterBarrier(b) => b + 2,
                        At::AfterLastBarrier => BARRIERS,
                    };
                    assert_eq!(left, vec![expect; n], "{what}: barriers attended per worker");
                }
            }
        }
    }

    #[test]
    fn run_returns_the_leads_result_and_phases_carry_values() {
        let sum = AtomicUsize::new(0);
        let step = |w: usize, seat: &mut Seat<'_>| {
            let mine = seat.phase(|| sum.fetch_add(w + 1, SeqCst)).expect("healthy crew");
            assert!(mine <= 6);
            seat.phase(|| sum.load(SeqCst)).expect("healthy crew")
        };
        let total = run(
            3,
            |seat| step(0, seat),
            |w, seat| {
                step(w, seat);
            },
        );
        assert_eq!(total, 1 + 2 + 3);
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        for n_threads in [1, 3, 64] {
            let got = fan_out(n_threads, 10, |i| {
                // Early items finish last, so completion order ≠ item order.
                (0..(10 - i) * 4).for_each(|_| std::thread::yield_now());
                i * i
            });
            assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>(), "n_threads={n_threads}");
        }
        assert_eq!(fan_out(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn fan_out_reraises_the_first_panic_with_its_payload() {
        for n_threads in [1, 3, 64] {
            let outcome = under_watchdog(format!("fan_out on {n_threads}"), move || {
                fan_out(n_threads, 8, |i| {
                    assert!(i != 5, "item {i} failed");
                    i
                })
            });
            let payload = outcome.expect_err("fan_out must re-raise");
            assert_eq!(payload.downcast_ref::<String>(), Some(&"item 5 failed".to_string()));
        }
    }
}
