//! Bounded worker lanes: the thread-pool mechanics shared by the shard
//! dispatcher ([`crate::ShardedSplitDetect`]) and the slow-path pool
//! ([`crate::SlowPathPool`]).
//!
//! [`Lanes`] runs N named worker threads, each behind a bounded
//! `sync_channel`. The bound turns a slow worker into backpressure (a
//! blocking [`Lanes::send`]) or visible overload (a refused
//! [`Lanes::try_send`]) instead of unbounded queueing. Each sent job takes
//! one unit of in-flight credit; the worker hands the drained buffer back
//! on one shared recycle channel and [`Lanes::recycled`] releases the
//! credit, so steady state allocates nothing and the credit is the lane's
//! queue depth.
//!
//! A worker failure never propagates to the caller's thread. A thread that
//! fails to spawn leaves a born-dead lane; a panicked worker is found dead
//! by the first send that meets its closed channel. A dead lane hands
//! every job back for the caller to count, its credit is released (those
//! buffers never come back), and the failure is kept as a
//! [`WorkerFailure`]. [`Lanes::finish`] closes the lanes, lets each worker
//! drain its queue, and joins them; it is idempotent and `Drop` calls it.

use std::fmt;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::thread::JoinHandle;

use sd_ips::ResourceUsage;

/// Which pool a worker belongs to: names its thread and its failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKind {
    /// An engine shard of [`crate::ShardedSplitDetect`].
    Shard,
    /// A reassembling worker of [`crate::SlowPathPool`].
    SlowPath,
}

impl WorkerKind {
    fn thread_name(self, worker: usize) -> String {
        match self {
            WorkerKind::Shard => format!("sd-shard-{worker}"),
            WorkerKind::SlowPath => format!("sd-slow-{worker}"),
        }
    }

    fn describe(self, worker: usize) -> String {
        match self {
            WorkerKind::Shard => format!("shard {worker} worker"),
            WorkerKind::SlowPath => format!("slow-path worker {worker}"),
        }
    }
}

/// A worker that failed to spawn or panicked before `finish`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The pool the worker belonged to.
    pub kind: WorkerKind,
    /// Index of the failed worker (its shard or slow-path lane).
    pub worker: usize,
    /// The spawn error, or the worker's panic payload (a placeholder for
    /// non-string panics).
    pub message: String,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let who = self.kind.describe(self.worker);
        write!(f, "{who} failed: {}", self.message)
    }
}

/// The worker thread's end of its lane.
pub(crate) struct Worker<J, B> {
    index: usize,
    jobs: Receiver<J>,
    recycle: Sender<(usize, B)>,
}

impl<J, B> Worker<J, B> {
    /// This worker's lane index.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Jobs in lane order, until the dispatcher closes the lane.
    pub(crate) fn jobs(&self) -> std::sync::mpsc::Iter<'_, J> {
        self.jobs.iter()
    }

    /// Hand a drained buffer back. The dispatcher may already be gone
    /// during teardown; an undeliverable buffer is not an error.
    pub(crate) fn recycle(&self, buf: B) {
        let _ = self.recycle.send((self.index, buf));
    }
}

struct Lane<J, R> {
    /// `None` once the lane is dead or closed by `finish`.
    tx: Option<SyncSender<J>>,
    handle: Option<JoinHandle<R>>,
    /// Jobs sent and not yet recycled back.
    in_flight: u64,
    dead: bool,
}

/// N worker threads behind bounded lanes carrying jobs `J`, recycling
/// buffers `B`, and returning `R` when joined. See the module docs.
pub(crate) struct Lanes<J, B, R> {
    kind: WorkerKind,
    lanes: Vec<Lane<J, R>>,
    recycle: Receiver<(usize, B)>,
    failures: Vec<WorkerFailure>,
}

impl<J: Send + 'static, B: Send + 'static, R: Send + 'static> Lanes<J, B, R> {
    /// Spawn one worker per body, each behind a lane of `depth` jobs.
    pub(crate) fn spawn<F>(
        kind: WorkerKind,
        depth: usize,
        bodies: impl IntoIterator<Item = F>,
    ) -> Self
    where
        F: FnOnce(Worker<J, B>) -> R + Send + 'static,
    {
        let (recycle_tx, recycle) = channel();
        let mut lanes = Vec::new();
        let mut failures = Vec::new();
        for (i, body) in bodies.into_iter().enumerate() {
            let (tx, jobs) = sync_channel(depth);
            let recycle = recycle_tx.clone();
            let spawned = if spawn_fails(i) {
                Err(std::io::Error::other("injected spawn failure"))
            } else {
                std::thread::Builder::new()
                    .name(kind.thread_name(i))
                    .spawn(move || {
                        body(Worker {
                            index: i,
                            jobs,
                            recycle,
                        })
                    })
            };
            let handle = spawned
                .map_err(|e| {
                    eprintln!("split-detect: {} failed to spawn: {e}", kind.describe(i));
                    failures.push(WorkerFailure {
                        kind,
                        worker: i,
                        message: format!("spawn failed: {e}"),
                    });
                })
                .ok();
            lanes.push(Lane {
                tx: handle.as_ref().map(|_| tx),
                dead: handle.is_none(),
                handle,
                in_flight: 0,
            });
        }
        Lanes {
            kind,
            lanes,
            recycle,
            failures,
        }
    }
}

impl<J, B, R> Lanes<J, B, R> {
    /// Number of lanes, dead ones included.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether lane `i`'s worker is known dead.
    pub(crate) fn is_dead(&self, i: usize) -> bool {
        self.lanes[i].dead
    }

    /// Jobs on lane `i` not yet recycled (its queue depth).
    pub(crate) fn in_flight(&self, i: usize) -> u64 {
        self.lanes[i].in_flight
    }

    /// Workers that failed so far: spawn failures from the start, panics
    /// once `finish` has joined them.
    pub(crate) fn failures(&self) -> &[WorkerFailure] {
        &self.failures
    }

    /// Send to lane `i`, waiting for room if `blocking`; the job comes
    /// back when the lane is full or dead.
    fn deliver(&mut self, i: usize, job: J, blocking: bool) -> Result<(), J> {
        let lane = &mut self.lanes[i];
        let Some(tx) = &lane.tx else {
            return Err(job);
        };
        let sent = if blocking {
            tx.send(job).map_err(|e| TrySendError::Disconnected(e.0))
        } else {
            tx.try_send(job)
        };
        match sent {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => Err(job),
            Err(TrySendError::Disconnected(job)) => {
                lane.tx = None;
                lane.dead = true;
                lane.in_flight = 0;
                Err(job)
            }
        }
    }

    /// Send a buffer-carrying job, waiting while the lane is full; takes
    /// one unit of credit. [`Lanes::try_send`] refuses a full lane
    /// instead. Both hand the job back when it was not sent.
    pub(crate) fn send(&mut self, i: usize, job: J) -> Result<(), J> {
        self.deliver(i, job, true)?;
        self.lanes[i].in_flight += 1;
        Ok(())
    }

    /// See [`Lanes::send`].
    pub(crate) fn try_send(&mut self, i: usize, job: J) -> Result<(), J> {
        self.deliver(i, job, false)?;
        self.lanes[i].in_flight += 1;
        Ok(())
    }

    /// Send a control job (no buffer, no credit) to lane `i`, waiting
    /// while it is full. Dropped if the lane is dead.
    pub(crate) fn control(&mut self, i: usize, job: J) {
        let _ = self.deliver(i, job, true);
    }

    /// [`Lanes::control`] to every lane, behind whatever each has queued.
    pub(crate) fn broadcast(&mut self, job: impl Fn() -> J) {
        for i in 0..self.lanes.len() {
            self.control(i, job());
        }
    }

    /// Take back every buffer recycled so far, releasing its lane's credit.
    pub(crate) fn recycled(&mut self, mut take: impl FnMut(B)) {
        while let Ok((i, buf)) = self.recycle.try_recv() {
            let lane = &mut self.lanes[i];
            lane.in_flight = lane.in_flight.saturating_sub(1);
            take(buf);
        }
    }

    /// Close every lane, let each worker drain its queue, and join them.
    /// Returns the workers' results in lane order — `None` for a worker
    /// that never spawned, panicked, or was joined by an earlier call —
    /// and records panics as failures (also logged to stderr). Never
    /// panics itself.
    pub(crate) fn finish(&mut self) -> Vec<Option<R>> {
        for lane in &mut self.lanes {
            lane.tx = None;
        }
        let (kind, failures) = (self.kind, &mut self.failures);
        let joined = self.lanes.iter_mut().enumerate().map(|(i, lane)| {
            lane.in_flight = 0;
            let panic = match lane.handle.take()?.join() {
                Ok(result) => return Some(result),
                Err(panic) => panic,
            };
            lane.dead = true;
            let failure = WorkerFailure {
                kind,
                worker: i,
                message: panic_message(panic.as_ref()),
            };
            eprintln!("split-detect: {failure}");
            failures.push(failure);
            None
        });
        joined.collect()
    }
}

impl<J, B, R> Drop for Lanes<J, B, R> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Resource usage summed over the engines of a pool's lanes. Peaks add
/// too: each lane provisions its own state and they run concurrently.
pub(crate) fn sum_usage(parts: impl IntoIterator<Item = ResourceUsage>) -> ResourceUsage {
    let mut total = ResourceUsage::default();
    for r in parts {
        total.packets += r.packets;
        total.payload_bytes += r.payload_bytes;
        total.bytes_scanned += r.bytes_scanned;
        total.bytes_buffered_total += r.bytes_buffered_total;
        total.state_bytes += r.state_bytes;
        total.state_bytes_peak += r.state_bytes_peak;
        total.alerts += r.alerts;
    }
    total
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
thread_local! {
    static FAIL_SPAWNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(not(test))]
fn spawn_fails(_worker: usize) -> bool {
    false
}

#[cfg(test)]
fn spawn_fails(worker: usize) -> bool {
    worker < 64 && (FAIL_SPAWNS.with(std::cell::Cell::get) >> worker) & 1 == 1
}

/// Test hook: run `build` with the spawn of worker `i` failing for every
/// bit `i` set in `mask` (born-dead lanes without exhausting OS threads).
/// Scoped to the calling thread.
#[cfg(test)]
pub(crate) fn with_spawn_failures<T>(mask: u64, build: impl FnOnce() -> T) -> T {
    FAIL_SPAWNS.with(|m| m.set(mask));
    let built = build();
    FAIL_SPAWNS.with(|m| m.set(0));
    built
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The job every test worker panics on.
    const PANIC: u64 = 0;

    /// Workers that sum their jobs (recycling each unless `hoard`) and
    /// panic on `PANIC`.
    fn summing(workers: usize, depth: usize, hoard: bool) -> Lanes<u64, u64, u64> {
        let body = move |w: Worker<u64, u64>| {
            let mut sum = 0;
            for job in w.jobs() {
                assert_ne!(job, PANIC, "worker {} hit the poison job", w.index());
                sum += job;
                if !hoard {
                    w.recycle(job);
                }
            }
            sum
        };
        Lanes::spawn(WorkerKind::Shard, depth, vec![body; workers])
    }

    #[test]
    fn born_dead_lane_refuses_jobs_and_reports_at_once() {
        let mut lanes = with_spawn_failures(0b10, || summing(3, 4, false));
        assert!(lanes.is_dead(1) && !lanes.is_dead(0) && !lanes.is_dead(2));
        let f = &lanes.failures()[0];
        assert_eq!((f.kind, f.worker), (WorkerKind::Shard, 1));
        assert!(f.message.contains("spawn failed"), "{f}");
        assert_eq!(lanes.send(1, 7), Err(7));
        assert_eq!(lanes.try_send(1, 8), Err(8));
        lanes.send(2, 5).unwrap();
        assert_eq!(lanes.finish(), vec![Some(0), None, Some(5)]);
        assert_eq!(lanes.failures().len(), 1);
    }

    #[test]
    fn worker_panic_mid_run_is_reported_at_finish_not_propagated() {
        let mut lanes = summing(2, 4, false);
        lanes.send(0, 3).unwrap();
        lanes.send(1, 4).unwrap();
        lanes.send(1, PANIC).unwrap();
        assert_eq!(lanes.finish(), vec![Some(3), None]);
        assert!(lanes.is_dead(1));
        let f = &lanes.failures()[0];
        assert!(f.message.contains("poison job"));
        assert!(f.to_string().starts_with("shard 1 worker failed: "));
    }

    #[test]
    fn send_to_dead_lane_hands_the_job_back_and_releases_its_credit() {
        // A worker that never recycles: credit only grows until it dies.
        let mut lanes = summing(1, 2, true);
        lanes.send(0, 1).unwrap();
        lanes.send(0, PANIC).unwrap();
        assert_eq!(lanes.in_flight(0), 2);
        // The worker dies on PANIC; a blocking send then meets the closed
        // channel, and every later send returns the job at once.
        while lanes.send(0, 9).is_ok() {}
        assert!(lanes.is_dead(0));
        assert_eq!(lanes.in_flight(0), 0, "a dead lane's buffers never return");
        assert_eq!(lanes.send(0, 9), Err(9));
        assert_eq!(lanes.try_send(0, 9), Err(9));
        lanes.broadcast(|| 9);
        assert_eq!(lanes.in_flight(0), 0);
    }

    #[test]
    fn finish_twice_joins_once() {
        let mut lanes = summing(2, 4, false);
        lanes.send(0, 2).unwrap();
        lanes.send(1, PANIC).unwrap();
        assert_eq!(lanes.finish(), vec![Some(2), None]);
        assert_eq!(lanes.finish(), vec![None, None]);
        assert_eq!(lanes.failures().len(), 1, "a failure is recorded once");
        assert_eq!(lanes.send(0, 1), Err(1), "finished lanes take no jobs");
    }

    #[test]
    fn drop_with_work_in_flight_drains_and_joins() {
        let (done_tx, done) = channel();
        let mut lanes: Lanes<u64, u64, ()> = Lanes::spawn(
            WorkerKind::SlowPath,
            64,
            vec![move |w: Worker<u64, u64>| w.jobs().for_each(|job| done_tx.send(job).unwrap())],
        );
        for job in 1..=32 {
            lanes.send(0, job).unwrap();
        }
        assert_eq!(lanes.in_flight(0), 32);
        drop(lanes);
        assert_eq!(done.iter().sum::<u64>(), (1..=32).sum(), "queue drained");
    }
}
