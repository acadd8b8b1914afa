//! The micro-batching queue between connection handlers and the serving
//! workers: queries are grouped by *resolved keyword set* (plus `k`, since
//! one engine batch call serves one `k`) and flushed to the batch engine
//! when the oldest member has waited the configured window — or sooner,
//! when the batch hits its size cap. A zero window degenerates to
//! per-request serving through the same machinery, which is what the E13
//! sweep's baseline arm measures.
//!
//! ## Concurrency invariants (enforced by `socialscope_analysis`)
//!
//! The batcher is a **dual-lock** design, and its safety rests on three
//! invariants. They are model-checked across every thread interleaving
//! (bounded preemption) by the extracted model in
//! `socialscope_analysis::mc::batcher`, and the lock-order rule is
//! additionally linted lexically; see the README's "Failure semantics"
//! and "Static analysis & model checking" sections.
//!
//! 1. **Why two locks.** Queue *data* ([`State`]: the per-key queues and
//!    the shutdown flag) lives under a `parking_lot::Mutex`, which is
//!    poison-free — a serving worker that panics mid-batch (isolated via
//!    `catch_unwind`) must never wedge the queue for every other
//!    connection. Worker *sleeping* needs a `std::sync::Condvar`, which
//!    only pairs with a `std::sync::Mutex`; that second mutex (the
//!    `gate`) guards exactly one `u64` — the notification epoch — and
//!    nothing else.
//!
//! 2. **What the gate epoch protects.** The classic condvar lost-wakeup
//!    window: a worker evaluates state (under `state`), finds nothing
//!    ripe, releases `state`, and *then* goes to sleep on the condvar. A
//!    notify landing between the release and the sleep would be lost —
//!    this shipped as a real race in PR 8 and was caught in review.
//!    Every state change (enqueue, shutdown) bumps the epoch **under the
//!    gate** before notifying; [`Batcher::next_batch`] snapshots the
//!    epoch *before* evaluating state and re-checks it under the gate
//!    before sleeping. Either the epoch already moved (the worker loops
//!    and re-evaluates) or the notifier is still blocked on the gate
//!    until `Condvar::wait` atomically releases it — the wakeup cannot
//!    be lost. The model checker proves this without relying on the
//!    [`IDLE_WAIT_FALLBACK`] bound, and flags the pre-review-fix mutant
//!    (snapshot removed) with a lost-wakeup counterexample.
//!
//! 3. **Lock order.** The `state` mutex must **never** be held while
//!    acquiring the `gate` mutex. A worker inside `Condvar::wait` holds
//!    the gate (it is reacquired on wakeup, and held between the epoch
//!    re-check and the wait); if a notifier could block on `gate` while
//!    holding `state`, a woken worker reacquiring `state` to re-evaluate
//!    would complete the cycle and deadlock. Acquiring `state` while
//!    holding `gate` is equally forbidden to keep both critical sections
//!    leaf-level. The `lock_order` lint checks this lexically per
//!    function body; every method below takes the two locks strictly in
//!    sequence, never nested.

use crate::wire::{QueryRequest, QueryResponse};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Condvar as StdCondvar;
use std::time::{Duration, Instant};

/// The key one micro-batch forms under: the request's keywords, resolved
/// to a case-normalized sorted set, plus the requested `k`. Two spellings
/// of the same keyword set land in the same batch; the engines normalize
/// again internally, so key resolution affects batching efficiency only,
/// never results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    /// Normalized (trimmed, lowercased), sorted, deduplicated keywords.
    pub keywords: Vec<String>,
    /// The requested result count.
    pub k: usize,
}

impl BatchKey {
    pub(crate) fn resolve(request: &QueryRequest) -> Self {
        let mut keywords: Vec<String> =
            request.keywords.iter().map(|kw| kw.trim().to_lowercase()).collect();
        keywords.sort();
        keywords.dedup();
        BatchKey { keywords, k: request.k }
    }
}

/// One admitted query waiting to be served: the request, its admission
/// time (the SLO budget counts from here, queue wait included), and the
/// channel its connection handler blocks on.
pub(crate) struct Pending {
    pub request: QueryRequest,
    pub enqueued: Instant,
    pub reply: mpsc::Sender<ServeOutcome>,
}

/// What the serving worker sends back per member.
pub(crate) enum ServeOutcome {
    /// A served (possibly degraded) answer.
    Answer(Box<QueryResponse>),
    /// The serving worker panicked under this member's batch; the handler
    /// answers 500 and the worker moves on (panic isolation).
    Failed,
}

/// A batch popped by a serving worker: its key, its members, and the
/// admission time of its oldest member.
pub(crate) struct ReadyBatch {
    pub key: BatchKey,
    pub members: Vec<Pending>,
    pub oldest: Instant,
}

/// Bound on the idle wait when no queue exists to ripen. The epoch
/// protocol makes enqueue/shutdown notifications unlosable on their own
/// (model-checked — see the module docs), so this is belt-and-suspenders:
/// any future regression degrades to at most this much added latency,
/// never a wedged worker.
const IDLE_WAIT_FALLBACK: Duration = Duration::from_millis(100);

struct State {
    queues: HashMap<BatchKey, Vec<Pending>>,
    shutdown: bool,
}

/// The shared micro-batch queue. `parking_lot`'s mutex is poison-free, so
/// a panicking serving worker (isolated via `catch_unwind`) can never
/// wedge the queue for every other connection.
pub(crate) struct Batcher {
    state: Mutex<State>,
    // std's Condvar pairs with a raw mutex; the gate guards a notification
    // epoch that enqueue/shutdown bump (under the gate) on every state
    // change. A worker snapshots the epoch before evaluating state and
    // re-checks it under the gate before sleeping: a notify can therefore
    // never land between its state evaluation and its wait — either the
    // epoch already moved (the worker loops and re-evaluates) or the
    // notifier is still blocked on the gate until `Condvar::wait`
    // atomically releases it (the wakeup is delivered).
    gate: std::sync::Mutex<u64>,
    cv: StdCondvar,
    window: Duration,
    max_batch: usize,
}

impl Batcher {
    pub(crate) fn new(window: Duration, max_batch: usize) -> Self {
        Batcher {
            state: Mutex::new(State { queues: HashMap::new(), shutdown: false }),
            gate: std::sync::Mutex::new(0),
            cv: StdCondvar::new(),
            window,
            max_batch: max_batch.max(1),
        }
    }

    fn lock_gate(&self) -> std::sync::MutexGuard<'_, u64> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a state change and wake every sleeping worker.
    fn bump_and_notify(&self) {
        *self.lock_gate() += 1;
        self.cv.notify_all();
    }

    /// Admit one query; its handler then blocks on the reply channel.
    pub(crate) fn enqueue(&self, pending: Pending) {
        {
            let mut state = self.state.lock();
            if state.shutdown {
                // Refused at shutdown: dropping the sender unblocks the
                // handler, which answers 500.
                return;
            }
            let key = BatchKey::resolve(&pending.request);
            state.queues.entry(key).or_default().push(pending);
        }
        self.bump_and_notify();
    }

    /// Block until some batch is ripe (its oldest member aged past the
    /// window, or it reached the size cap), pop and return it. Returns
    /// `None` once the batcher is shut down and drained.
    pub(crate) fn next_batch(&self) -> Option<ReadyBatch> {
        loop {
            // Snapshot the notification epoch *before* evaluating state:
            // any enqueue/shutdown that lands after the evaluation bumps
            // it, and the re-check under the gate below catches that.
            let epoch = *self.lock_gate();
            let wait_for = {
                let mut state = self.state.lock();
                // lint: allow(clock_confined, reason = "window-ripeness decision: the batcher compares queue age against the flush window; per-query serving budgets still go through content's strided Deadline clock")
                let now = Instant::now();
                // The ripest queue: lowest due time (oldest + window),
                // with size-capped queues due immediately. A due time past
                // the clock's range never comes: such a queue flushes only
                // at its size cap or at shutdown, both of which notify.
                let ripest = state
                    .queues
                    .iter()
                    .filter_map(|(key, members)| {
                        // lint: allow(no_panic, reason = "true invariant: enqueue pushes >= 1 member and next_batch removes whole entries, so a mapped queue is never empty")
                        let oldest =
                            members.iter().map(|m| m.enqueued).min().expect("queues are non-empty");
                        let due = if members.len() >= self.max_batch || state.shutdown {
                            now
                        } else {
                            oldest.checked_add(self.window)?
                        };
                        Some((due, key.clone()))
                    })
                    .min_by(|(a, _), (b, _)| a.cmp(b));
                match ripest {
                    Some((due, key)) if due <= now => {
                        // lint: allow(no_panic, reason = "true invariant: the key was observed in the map in this same critical section, and `state` is still held")
                        let members = state.queues.remove(&key).expect("key just observed");
                        // lint: allow(no_panic, reason = "true invariant: the removed queue is the one observed non-empty above")
                        let oldest =
                            members.iter().map(|m| m.enqueued).min().expect("non-empty batch");
                        return Some(ReadyBatch { key, members, oldest });
                    }
                    Some((due, _)) => Some(due - now),
                    None if state.shutdown => return None,
                    None => None,
                }
            };
            // Nothing ripe: sleep until the earliest due time (or an
            // enqueue/shutdown notification), then re-evaluate — unless
            // the epoch moved since the evaluation, meaning a notify
            // already fired that we would otherwise miss.
            let guard = self.lock_gate();
            if *guard != epoch {
                continue;
            }
            match wait_for {
                Some(timeout) => drop(self.cv.wait_timeout(guard, timeout)),
                // No queue to ripen: only a notification creates work, and
                // the epoch check above makes it unlosable (model-checked
                // without this bound — see the module docs).
                None => drop(self.cv.wait_timeout(guard, IDLE_WAIT_FALLBACK)),
            }
        }
    }

    /// Stop admitting work and wake every worker; queued members are still
    /// flushed (as immediately-due batches) before workers see `None`.
    pub(crate) fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.bump_and_notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::NodeId;
    use std::sync::Arc;

    fn request(seeker: u64, keywords: &[&str], k: usize) -> QueryRequest {
        QueryRequest::new(NodeId(seeker), keywords.iter().map(|s| s.to_string()).collect(), k)
    }

    #[test]
    fn keys_resolve_keyword_spelling_and_order() {
        let a = BatchKey::resolve(&request(1, &["Baseball", " museum ", "baseball"], 5));
        let b = BatchKey::resolve(&request(2, &["museum", "BASEBALL"], 5));
        assert_eq!(a, b);
        assert_eq!(a.keywords, vec!["baseball".to_string(), "museum".to_string()]);
        // k splits the batch: one engine call serves one k.
        let c = BatchKey::resolve(&request(2, &["museum", "baseball"], 6));
        assert_ne!(a, c);
    }

    #[test]
    fn batches_group_by_key_and_flush_by_window() {
        let batcher = Batcher::new(Duration::from_millis(5), 64);
        let (tx, _rx) = mpsc::channel();
        for seeker in 0..3 {
            batcher.enqueue(Pending {
                request: request(seeker, &["a"], 3),
                enqueued: Instant::now(),
                reply: tx.clone(),
            });
        }
        batcher.enqueue(Pending {
            request: request(9, &["b"], 3),
            enqueued: Instant::now(),
            reply: tx.clone(),
        });
        let first = batcher.next_batch().expect("a batch ripens");
        let second = batcher.next_batch().expect("the other key ripens");
        let mut sizes = [first.members.len(), second.members.len()];
        sizes.sort();
        assert_eq!(sizes, [1, 3]);
        assert_ne!(first.key, second.key);
    }

    #[test]
    fn size_cap_flushes_before_the_window() {
        let batcher = Batcher::new(Duration::from_secs(3600), 2);
        let (tx, _rx) = mpsc::channel();
        let start = Instant::now();
        for seeker in 0..2 {
            batcher.enqueue(Pending {
                request: request(seeker, &["a"], 3),
                enqueued: Instant::now(),
                reply: tx.clone(),
            });
        }
        let batch = batcher.next_batch().expect("cap-triggered flush");
        assert_eq!(batch.members.len(), 2);
        assert!(start.elapsed() < Duration::from_secs(60), "did not wait for the hour window");
    }

    /// A window too long to add to any instant never ripens a queue by
    /// time, and must not stop a full batch of another key from flushing.
    #[test]
    fn an_unrepresentable_window_still_flushes_full_batches() {
        let batcher = Batcher::new(Duration::MAX, 2);
        let (tx, _rx) = mpsc::channel();
        batcher.enqueue(Pending {
            request: request(1, &["a"], 3),
            enqueued: Instant::now(),
            reply: tx.clone(),
        });
        for seeker in 2..4 {
            batcher.enqueue(Pending {
                request: request(seeker, &["b"], 3),
                enqueued: Instant::now(),
                reply: tx.clone(),
            });
        }
        let batch = batcher.next_batch().expect("the full key-b batch flushes");
        assert_eq!(batch.key, BatchKey::resolve(&request(2, &["b"], 3)));
        assert_eq!(batch.members.len(), 2);
    }

    #[test]
    fn enqueue_wakes_a_worker_idling_on_empty_queues() {
        let batcher = Arc::new(Batcher::new(Duration::from_millis(1), 64));
        let worker = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.next_batch())
        };
        // Let the worker reach its idle wait on empty queues first; the
        // enqueue notification (not the bounded fallback wait) must wake
        // it and ripen the batch promptly.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, _rx) = mpsc::channel();
        batcher.enqueue(Pending {
            request: request(1, &["a"], 3),
            enqueued: Instant::now(),
            reply: tx,
        });
        let batch = worker.join().unwrap().expect("woken by enqueue");
        assert_eq!(batch.members.len(), 1);
    }

    #[test]
    fn shutdown_drains_queues_then_yields_none() {
        let batcher = Arc::new(Batcher::new(Duration::from_secs(3600), 64));
        let (tx, _rx) = mpsc::channel();
        batcher.enqueue(Pending {
            request: request(1, &["a"], 3),
            enqueued: Instant::now(),
            reply: tx,
        });
        batcher.shutdown();
        assert_eq!(batcher.next_batch().expect("drain flush").members.len(), 1);
        assert!(batcher.next_batch().is_none());
        // Post-shutdown enqueues are refused (sender dropped → handler 500s).
        let (tx, rx) = mpsc::channel();
        batcher.enqueue(Pending {
            request: request(2, &["a"], 3),
            enqueued: Instant::now(),
            reply: tx,
        });
        assert!(rx.recv().is_err(), "refused enqueue must drop the reply sender");
    }
}
