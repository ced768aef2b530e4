//! The bounded queues of the server: accepted jobs waiting for a
//! worker, and accepted connections waiting for a handler thread.
//!
//! Backpressure lives here: [`JobQueue::push`] fails immediately with
//! [`PushError::Full`] when the queue is at capacity and hands the
//! item back (the HTTP layer turns a refused job into `429 Too Many
//! Requests` + `Retry-After`, a refused connection into an inline
//! 503), and a closed queue rejects new work while still draining
//! what was accepted — the graceful-shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use srm_obs::lock_ignoring_poison;

use crate::job::JobSpec;

/// One accepted job waiting for a worker.
pub struct QueuedJob {
    /// Job id (`job-N`).
    pub id: String,
    /// The parsed request.
    pub spec: JobSpec,
    /// Cooperative deadline derived from the request's `timeout_ms`.
    pub deadline: Option<Instant>,
    /// Per-job trace sink opened at submit time, if tracing is on.
    pub trace: Option<std::sync::Arc<srm_obs::JsonlSink>>,
    /// When the job entered the queue (or re-entered it at boot
    /// recovery) — feeds the `queue-wait` phase of the server's
    /// profile.
    pub submitted: Instant,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob").field("id", &self.id).finish()
    }
}

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — try again later (HTTP 429).
    Full,
    /// The queue is closed for new work (HTTP 503, shutting down).
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO — of accepted jobs by
/// default.
pub struct JobQueue<T = QueuedJob> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for JobQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` waiting items (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues an item, failing fast when full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`]; either way the refused item comes back.
    pub fn push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut inner = lock_ignoring_poison(&self.inner);
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` tells the consumer to exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_ignoring_poison(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Enqueues a job recovered from the state directory at boot,
    /// bypassing the capacity check — recovered work was already
    /// accepted (and 201'd) in a previous life, so it must not be
    /// bounced by backpressure meant for *new* submissions.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`JobQueue::close`].
    pub fn requeue(&self, item: T) -> Result<(), PushError> {
        let mut inner = lock_ignoring_poison(&self.inner);
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Closes the queue: no new pushes, waiting items still drain.
    pub fn close(&self) {
        lock_ignoring_poison(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// Number of items currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.inner).items.len()
    }

    /// The configured capacity (maximum waiting items for `push`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use srm_obs::json::parse;

    fn spec() -> JobSpec {
        let body = parse(r#"{"kind":"fit","dataset":"short_campaign_25"}"#).unwrap();
        JobSpec::from_json(&body).unwrap()
    }

    fn job(id: &str) -> QueuedJob {
        QueuedJob {
            id: id.into(),
            spec: spec(),
            deadline: None,
            trace: None,
            submitted: Instant::now(),
        }
    }

    #[test]
    fn push_pop_is_fifo() {
        let q = JobQueue::new(4);
        q.push(job("a")).unwrap();
        q.push(job("b")).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id, "a");
        assert_eq!(q.pop().unwrap().id, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects() {
        let q = JobQueue::new(1);
        q.push(job("a")).unwrap();
        let (reason, refused) = q.push(job("b")).unwrap_err();
        assert_eq!(reason, PushError::Full);
        assert_eq!(refused.id, "b", "a refused push hands the item back");
    }

    #[test]
    fn requeue_bypasses_capacity_but_not_close() {
        let q = JobQueue::new(1);
        q.push(job("a")).unwrap();
        assert_eq!(q.push(job("b")).unwrap_err().0, PushError::Full);
        q.requeue(job("recovered")).unwrap();
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.requeue(job("late")).unwrap_err(), PushError::Closed);
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = JobQueue::new(4);
        q.push(job("a")).unwrap();
        q.close();
        assert_eq!(q.push(job("b")).unwrap_err().0, PushError::Closed);
        assert_eq!(q.pop().unwrap().id, "a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_wakes_on_close() {
        let q = std::sync::Arc::new(JobQueue::<QueuedJob>::new(2));
        let q2 = std::sync::Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap());
    }
}
