//! The rebuild subsystem: a maintainer that builds replacement shard filters
//! off-lock and swaps them in atomically.
//!
//! A policy-triggered rebuild is the one write-path operation that is O(shard
//! size) instead of O(batch). The shard writer does not build it under its
//! lock (bar the fallbacks named below): it records a pending-rebuild state
//! and hands the store a ticket.
//! The store's maintainer — the calling thread itself
//! ([`RebuildMode::Inline`]), a worker thread, or an explicit queue — then
//!
//! 1. briefly locks the writer to snapshot the shard's live key set
//!    ([`Shard::begin_rebuild`]), switching the writer into delta-logging
//!    mode,
//! 2. builds the replacement filter **off-lock** — readers keep probing the
//!    published snapshot, writers keep appending to the current filter,
//! 3. re-acquires the writer briefly, replays the (bounded) delta of keys
//!    inserted/deleted since the snapshot, and publishes the replacement
//!    with a single `Arc` swap ([`Shard::finish_rebuild`]).
//!
//! Tickets carry the writer's rebuild epoch: if the shard rebuilt by other
//! means in the meantime (the under-lock fallback for decisions of
//! immediate urgency and for shards that re-saturate mid-flight), the stale
//! job is discarded instead of clobbering the newer filter.

use crate::shard::{RebuildPlan, RebuildTicket, Shard};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a store executes policy-triggered `Rebuild` decisions.
///
/// Every mode runs the same job — key-set snapshot, off-lock build, delta
/// replay, `Arc` swap. The only rebuilds that build under a shard's write
/// lock, in every mode, are decisions the policy marks
/// [`RebuildUrgency::Immediate`](crate::RebuildUrgency::Immediate) and the
/// backpressure fallback for a shard that re-saturates while its job is in
/// flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebuildMode {
    /// The write call that requests a rebuild runs the job itself, on the
    /// calling thread, right after its shard's slice of the batch and
    /// before the call returns — the caller is the maintainer. The default.
    /// Filters, key sets and rebuild counts match [`Queued`](Self::Queued)
    /// drained after every call.
    #[default]
    Inline,
    /// Rebuild off-lock on a dedicated maintainer thread and swap the
    /// replacement in atomically. Writers stay latency-flat; readers are
    /// unaffected either way.
    Background,
    /// Rebuild off-lock, but only when the caller explicitly runs queued
    /// jobs via [`run_pending_rebuilds`] (or implicitly via [`maintain`],
    /// which drains the queue). Each job takes **two** steps — one for the
    /// key-set snapshot, one for the off-lock build, delta replay and swap —
    /// so a harness can interleave writes into the delta-replay window at
    /// will. The deterministic mode the interleaving and property tests
    /// drive, and the hook for embedders running rebuilds on an executor of
    /// their own.
    ///
    /// [`run_pending_rebuilds`]: crate::ShardedFilterStore::run_pending_rebuilds
    /// [`maintain`]: crate::ShardedFilterStore::maintain
    Queued,
}

/// One queued rebuild job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    shard: usize,
    ticket: RebuildTicket,
}

/// A job in the queued-mode pipeline. Jobs advance one phase per
/// `run_pending` step so a deterministic harness can open the delta-replay
/// window (between snapshot and swap) and interleave writes into it.
#[derive(Debug)]
pub(crate) enum QueuedStep {
    /// Snapshot not yet taken.
    Request(Job),
    /// Snapshot taken (the shard writer is delta-logging); the next step
    /// builds the replacement off-lock, replays the delta and swaps.
    Staged { job: Job, plan: RebuildPlan },
}

/// Enqueue/completion counters behind the [`Maintainer::drain`] barrier.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    /// `(enqueued, completed)` — completed counts discarded stale jobs too.
    counts: Mutex<(u64, u64)>,
    done: Condvar,
}

/// The store's rebuild executor: the calling thread (inline mode), a worker
/// thread (background mode) or an explicit job queue (queued mode).
#[derive(Debug)]
pub(crate) enum Maintainer {
    Inline {
        shards: Arc<Vec<Shard>>,
    },
    Threaded {
        /// `Option` so `Drop` can hang up the channel before joining.
        sender: Option<Sender<Job>>,
        worker: Option<JoinHandle<()>>,
        progress: Arc<Progress>,
    },
    Queued {
        queue: Mutex<VecDeque<QueuedStep>>,
        shards: Arc<Vec<Shard>>,
    },
}

/// Run one job to completion: snapshot, off-lock build, delta replay, swap.
/// A stale ticket is discarded.
fn execute(shards: &[Shard], job: Job) {
    let shard = &shards[job.shard];
    if let Some(plan) = shard.begin_rebuild(job.ticket) {
        let (filter, capacity) = plan.build();
        shard.finish_rebuild(job.ticket, filter, capacity, None);
    }
}

impl Maintainer {
    /// Create the executor for `mode`.
    pub(crate) fn new(mode: RebuildMode, shards: Arc<Vec<Shard>>) -> Self {
        match mode {
            RebuildMode::Inline => Self::Inline { shards },
            RebuildMode::Queued => Self::Queued {
                queue: Mutex::new(VecDeque::new()),
                shards,
            },
            RebuildMode::Background => {
                let (sender, receiver) = channel::<Job>();
                let progress = Arc::new(Progress::default());
                let worker_progress = Arc::clone(&progress);
                let worker = std::thread::Builder::new()
                    .name("pof-store-maintainer".into())
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            execute(&shards, job);
                            let mut counts =
                                worker_progress.counts.lock().expect("progress poisoned");
                            counts.1 += 1;
                            worker_progress.done.notify_all();
                        }
                    })
                    .expect("spawning the maintainer thread failed");
                Self::Threaded {
                    sender: Some(sender),
                    worker: Some(worker),
                    progress,
                }
            }
        }
    }

    /// Hand a shard's rebuild request to the executor (inline mode runs it
    /// on the spot).
    pub(crate) fn enqueue(&self, shard: usize, ticket: RebuildTicket) {
        let job = Job { shard, ticket };
        match self {
            Self::Inline { shards } => shards[shard].run_rebuild(ticket),
            Self::Threaded {
                sender, progress, ..
            } => {
                // Count before sending: the worker may complete (and count)
                // the job before this thread resumes, and `drain` must never
                // observe completed > enqueued.
                progress.counts.lock().expect("progress poisoned").0 += 1;
                sender
                    .as_ref()
                    .expect("sender lives as long as the store")
                    .send(job)
                    .expect("maintainer thread lives as long as the store");
            }
            Self::Queued { queue, .. } => {
                queue
                    .lock()
                    .expect("queue poisoned")
                    .push_back(QueuedStep::Request(job));
            }
        }
    }

    /// Barrier: return only when every job enqueued *before this call* has
    /// completed. The target is captured at entry — waiting on the live
    /// counter instead would chase jobs enqueued by concurrent writers and
    /// never return under sustained churn. In queued mode this runs the
    /// whole queue on the calling thread; inline mode has nothing in flight.
    pub(crate) fn drain(&self) {
        match self {
            Self::Threaded { progress, .. } => {
                let mut counts = progress.counts.lock().expect("progress poisoned");
                let target = counts.0;
                while counts.1 < target {
                    counts = progress.done.wait(counts).expect("progress poisoned");
                }
            }
            Self::Inline { .. } | Self::Queued { .. } => {
                self.run_pending(usize::MAX);
            }
        }
    }

    /// Queued mode: advance up to `limit` job phases on the calling thread
    /// (a full rebuild is two phases: snapshot, then build + replay + swap).
    /// Returns how many phases ran; stale jobs are discarded and counted.
    pub(crate) fn run_pending(&self, limit: usize) -> usize {
        match self {
            // Inline jobs never wait; the worker owns execution and
            // callers use `drain`.
            Self::Inline { .. } | Self::Threaded { .. } => 0,
            Self::Queued { queue, shards } => {
                let mut ran = 0;
                while ran < limit {
                    let step = queue.lock().expect("queue poisoned").pop_front();
                    match step {
                        None => break,
                        Some(QueuedStep::Request(job)) => {
                            // Stale tickets (the shard already rebuilt
                            // under its lock) simply evaporate here.
                            if let Some(plan) = shards[job.shard].begin_rebuild(job.ticket) {
                                queue
                                    .lock()
                                    .expect("queue poisoned")
                                    .push_front(QueuedStep::Staged { job, plan });
                            }
                        }
                        Some(QueuedStep::Staged { job, plan }) => {
                            let (filter, capacity) = plan.build();
                            shards[job.shard].finish_rebuild(job.ticket, filter, capacity, None);
                        }
                    }
                    ran += 1;
                }
                ran
            }
        }
    }

    /// Jobs enqueued but not yet completed.
    pub(crate) fn pending(&self) -> usize {
        match self {
            Self::Inline { .. } => 0,
            Self::Threaded { progress, .. } => {
                let counts = progress.counts.lock().expect("progress poisoned");
                (counts.0 - counts.1) as usize
            }
            Self::Queued { queue, .. } => queue.lock().expect("queue poisoned").len(),
        }
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        if let Self::Threaded { sender, worker, .. } = self {
            // Hang up; the worker finishes every queued job, then exits.
            drop(sender.take());
            if let Some(worker) = worker.take() {
                let _ = worker.join();
            }
        }
    }
}
