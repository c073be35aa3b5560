//! The session server: admission, workers, streaming, shutdown.
//!
//! Concurrency contract (checked by `cargo xtask analyze`):
//!
//! - No queue/backpressure call is ever made while a mutex guard is
//!   live — stats updates happen in their own tight scopes.
//! - The worker loop is cancel-live: every job run begins with a token
//!   check, and the streaming loop re-checks between batches.
//! - Every resource is lease-shaped. The admission credit and the
//!   shared-pool page charge travel *inside* the job, so whichever
//!   thread drops the job (worker, or the queue drain at shutdown)
//!   returns them; result channels are closed by the worker on every
//!   path and by [`QueryHandle`]'s drop on the client side.

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::stats::{ServerSnapshot, SessionStats};
use skyline_exec::{Backpressure, CancelToken, PushTimeout, TryAcquire, WorkQueue};
use skyline_query::{
    catalog::Catalog, execute_query_with, parse, ExecOptions, QueryError, SkylineAlgo,
};
use skyline_relation::Tuple;
use skyline_storage::{BufferLease, BufferPool};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-recovering lock: the ledger data stays usable even if a
/// worker panicked mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Per-submission contract overrides; the config supplies defaults.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Page quota for this query (`None` = the config default).
    pub quota_pages: Option<usize>,
    /// Deadline for this query (`None` = the config default).
    pub deadline: Option<Duration>,
    /// Skyline algorithm to run.
    pub algo: SkylineAlgo,
}

impl QueryOptions {
    /// Override the page quota.
    #[must_use]
    pub fn with_quota_pages(mut self, pages: usize) -> Self {
        self.quota_pages = Some(pages);
        self
    }

    /// Set a deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Select the skyline algorithm.
    #[must_use]
    pub fn with_algo(mut self, algo: SkylineAlgo) -> Self {
        self.algo = algo;
        self
    }
}

/// One message on a query's result channel.
enum Msg {
    /// A batch of result rows, in order.
    Rows(Vec<Tuple>),
    /// Terminal marker: how the query ended. Exactly one per query
    /// unless the channel was severed.
    End(Result<(), ServerError>),
}

/// A query in flight: everything the worker needs, including the
/// admission credit's page charge (returned when the job drops).
struct Job {
    sql: String,
    algo: SkylineAlgo,
    token: CancelToken,
    quota: BufferPool,
    _charge: BufferLease,
    results: Arc<WorkQueue<Msg>>,
    stats: Arc<Mutex<SessionStats>>,
    submitted_at: Instant,
}

impl Drop for Job {
    /// Sever the result channel on every exit — including a worker
    /// unwinding mid-job — so an abandoned client observes
    /// [`ServerError::Stalled`] instead of blocking forever. Closing is
    /// idempotent; the normal path has already closed after its `End`.
    fn drop(&mut self) {
        self.results.close();
    }
}

/// State shared between sessions and workers.
struct Shared {
    catalog: Catalog,
    cfg: ServerConfig,
    /// In-flight page ledger: each admitted query charges its quota
    /// here, so admission itself is the pages watermark.
    pool: BufferPool,
    /// Queue-depth watermark: one credit per job from admission to
    /// completion.
    gate: Backpressure,
    jobs: WorkQueue<Job>,
    /// Root of every query token: shutdown fans out through children.
    root: CancelToken,
}

/// The in-process session server.
///
/// Dropping the server shuts it down: the root token cancels (fanning
/// out to every in-flight query), the queues close, and the workers are
/// joined.
pub struct SkylineServer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    sessions: Mutex<Vec<Arc<Mutex<SessionStats>>>>,
}

impl SkylineServer {
    /// Start a server over `catalog` with `cfg` workers and watermarks.
    #[must_use]
    pub fn new(catalog: Catalog, cfg: ServerConfig) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            pool: BufferPool::new(cfg.pool_pages),
            gate: Backpressure::new(cfg.queue_capacity + workers),
            jobs: WorkQueue::bounded(cfg.queue_capacity.max(1)),
            root: CancelToken::new(),
            catalog,
            cfg,
        });
        let handles = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        SkylineServer {
            shared,
            workers: Mutex::new(handles),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// Open a session: an independent stats ledger over the shared
    /// worker pool. Sessions are cheap handles; clone freely.
    pub fn session(&self) -> Session {
        let stats = Arc::new(Mutex::new(SessionStats::default()));
        lock(&self.sessions).push(Arc::clone(&stats));
        Session {
            shared: Arc::clone(&self.shared),
            stats,
        }
    }

    /// Aggregate every session's counters into one snapshot.
    pub fn snapshot(&self) -> ServerSnapshot {
        let sessions = lock(&self.sessions);
        let mut totals = SessionStats::default();
        for s in sessions.iter() {
            totals.absorb(&lock(s));
        }
        ServerSnapshot {
            sessions: sessions.len(),
            totals,
        }
    }

    /// Pages currently charged to in-flight queries on the shared
    /// ledger.
    pub fn inflight_pages(&self) -> usize {
        self.shared.pool.used()
    }

    /// Stop accepting work, cancel every in-flight query, and join the
    /// workers. Queued jobs are still drained by the workers — their
    /// tokens are children of the root, so each one reports the typed
    /// cancellation to its client at token-check speed. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.shared.root.cancel();
        self.shared.jobs.close();
        self.shared.gate.close();
        let handles = {
            let mut guard = lock(&self.workers);
            std::mem::take(&mut *guard)
        };
        for h in handles {
            if h.join().is_err() {
                // a worker panicked; its job's leases were reclaimed by
                // unwinding drops, so shutdown still converges
            }
        }
    }
}

impl Drop for SkylineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's handle for submitting queries and reading its own
/// counters.
#[derive(Clone)]
pub struct Session {
    shared: Arc<Shared>,
    stats: Arc<Mutex<SessionStats>>,
}

impl Session {
    /// Submit `sql` under the config's default contract.
    ///
    /// # Errors
    /// Everything [`Session::submit_with`] reports.
    pub fn submit(&self, sql: &str) -> Result<QueryHandle, ServerError> {
        self.submit_with(sql, &QueryOptions::default())
    }

    /// Submit `sql` under an explicit per-query contract. Admission
    /// either grants a queue credit and charges the quota against the
    /// in-flight page ledger, or sheds the query typed — it never
    /// blocks past the admission timeout.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] when a watermark is crossed,
    /// [`ServerError::Shutdown`] when the server is stopping.
    /// Execution-time errors stream through the returned handle.
    pub fn submit_with(&self, sql: &str, q: &QueryOptions) -> Result<QueryHandle, ServerError> {
        {
            lock(&self.stats).submitted += 1;
        }
        let sh = &self.shared;
        if sh.root.is_cancelled() {
            return Err(self.reject(ServerError::Shutdown));
        }
        // Pages watermark: the query's whole quota is charged up front,
        // so admitted quotas can never oversubscribe the server pool.
        let quota_pages = q.quota_pages.unwrap_or(sh.cfg.quota_pages);
        let charge = match sh.pool.reserve(quota_pages) {
            Ok(lease) => lease,
            Err(_) => {
                return Err(self.reject(ServerError::Overloaded {
                    retry_after_ms: sh.cfg.retry_after_ms,
                }))
            }
        };
        // Queue-depth watermark: waiting is bounded by the admission
        // timeout, then the query is shed.
        match sh.gate.acquire_timeout(sh.cfg.admission_timeout) {
            TryAcquire::Granted => {}
            TryAcquire::Exhausted => {
                drop(charge);
                return Err(self.reject(ServerError::Overloaded {
                    retry_after_ms: sh.cfg.retry_after_ms,
                }));
            }
            TryAcquire::Closed => {
                drop(charge);
                return Err(self.reject(ServerError::Shutdown));
            }
        }
        let deadline = q.deadline.or(sh.cfg.deadline);
        let token = match deadline {
            Some(d) => sh.root.child_with_deadline(d),
            None => sh.root.child(),
        };
        let results: Arc<WorkQueue<Msg>> =
            Arc::new(WorkQueue::bounded(sh.cfg.result_batches.max(1)));
        let job = Job {
            sql: sql.to_string(),
            algo: q.algo,
            token: token.clone(),
            quota: BufferPool::new(quota_pages),
            _charge: charge,
            results: Arc::clone(&results),
            stats: Arc::clone(&self.stats),
            submitted_at: Instant::now(),
        };
        // Count the admission *before* the job becomes visible to
        // workers: a fast worker could otherwise finish the query (and
        // decrement `in_flight`) before we ever incremented it. A
        // failed enqueue rolls the admission back into a rejection.
        {
            let mut st = lock(&self.stats);
            st.admitted += 1;
            st.in_flight += 1;
        }
        let enqueue_by = Instant::now() + sh.cfg.admission_timeout;
        match sh.jobs.push_deadline(job, enqueue_by) {
            Ok(()) => {}
            Err(PushTimeout::TimedOut(job)) => {
                drop(job); // returns the page charge
                sh.gate.release();
                self.unadmit();
                return Err(self.reject(ServerError::Overloaded {
                    retry_after_ms: sh.cfg.retry_after_ms,
                }));
            }
            Err(PushTimeout::Closed(job)) => {
                drop(job);
                sh.gate.release();
                self.unadmit();
                return Err(self.reject(ServerError::Shutdown));
            }
        }
        Ok(QueryHandle {
            results,
            token,
            done: false,
        })
    }

    /// This session's counters, copied at this instant.
    pub fn stats(&self) -> SessionStats {
        *lock(&self.stats)
    }

    fn reject(&self, err: ServerError) -> ServerError {
        lock(&self.stats).rejected += 1;
        err
    }

    /// Roll back a provisional admission whose enqueue failed.
    fn unadmit(&self) {
        let mut st = lock(&self.stats);
        st.admitted -= 1;
        st.in_flight -= 1;
    }
}

/// The client side of one submitted query: a bounded stream of row
/// batches ending in a typed verdict.
///
/// Dropping the handle severs the channel and cancels the query — an
/// abandoned client never wedges a worker.
pub struct QueryHandle {
    results: Arc<WorkQueue<Msg>>,
    token: CancelToken,
    done: bool,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("done", &self.done)
            .field("cancelled", &self.token.is_cancelled())
            .finish()
    }
}

impl QueryHandle {
    /// Cancel the query. The worker observes the trip at its next
    /// check and reports the typed cancellation with partial progress.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Next batch of rows, blocking while the worker is ahead. `None`
    /// after the final batch of a completed query.
    ///
    /// # Errors
    /// `Some(Err(…))` exactly once for a query that ended in a typed
    /// error — the terminal [`ServerError`], or [`ServerError::Stalled`]
    /// when the channel was severed without a verdict.
    pub fn next_batch(&mut self) -> Option<Result<Vec<Tuple>, ServerError>> {
        if self.done {
            return None;
        }
        match self.results.pop() {
            Some(Msg::Rows(rows)) => Some(Ok(rows)),
            Some(Msg::End(Ok(()))) => {
                self.done = true;
                None
            }
            Some(Msg::End(Err(e))) => {
                self.done = true;
                Some(Err(e))
            }
            // Severed without a verdict: the worker declared us stalled.
            None => {
                self.done = true;
                Some(Err(ServerError::Stalled))
            }
        }
    }

    /// Drain the stream into one row set.
    ///
    /// # Errors
    /// The query's terminal [`ServerError`], if it did not complete.
    pub fn collect(mut self) -> Result<Vec<Tuple>, ServerError> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch() {
            rows.append(&mut batch?);
        }
        Ok(rows)
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.results.close();
        self.token.cancel();
    }
}

/// How a job ended, for the stats ledger.
enum Verdict {
    Completed,
    Cancelled,
    Failed,
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        let waited = job.submitted_at.elapsed();
        let started = Instant::now();
        let outcome = run_query(shared, &job);
        let (verdict, terminal) = stream_batches(shared, &job, outcome);
        let pages_peak = job.quota.peak();
        {
            let mut st = lock(&job.stats);
            st.in_flight -= 1;
            match verdict {
                Verdict::Completed => st.completed += 1,
                Verdict::Cancelled => st.cancelled += 1,
                Verdict::Failed => st.failed += 1,
            }
            st.pages_peak = st.pages_peak.max(pages_peak);
            st.record_timing(started.elapsed(), waited);
        }
        // Publish the verdict only after the books are settled, so a
        // client that has seen its terminal message can trust the
        // counters. Bounded by the stream grace like every other push.
        let grace_until = Instant::now() + shared.cfg.stream_grace;
        if job
            .results
            .push_deadline(Msg::End(terminal), grace_until)
            .is_err()
        {
            // client gone or stalled; closing the channel severs it
        }
        job.results.close();
        drop(job); // returns the shared-pool page charge
        shared.gate.release();
    }
}

/// Parse and execute one job under its contract. The token is checked
/// before any work so a cancelled or deadline-stormed queue drains at
/// token-check speed.
fn run_query(shared: &Shared, job: &Job) -> Result<Vec<Tuple>, ServerError> {
    job.token
        .check(0)
        .map_err(|e| ServerError::Query(QueryError::from_exec(e)))?;
    let query = parse(&job.sql).map_err(ServerError::Query)?;
    let mut opts = ExecOptions::default()
        .with_algo(job.algo)
        .with_pool(job.quota.clone())
        .with_cancel(job.token.clone())
        .with_threads(shared.cfg.threads)
        .with_sort_pages(shared.cfg.sort_pages)
        .with_external_threshold(shared.cfg.external_threshold);
    if let Some(disk) = &shared.cfg.disk {
        opts = opts.with_disk(Arc::clone(disk));
    }
    execute_query_with(&query, &shared.catalog, &opts)
        .map(skyline_relation::Table::into_rows)
        .map_err(ServerError::Query)
}

/// Stream the row batches to the client through the bounded channel and
/// decide the verdict. Between batches the token is re-checked; a
/// consumer slower than the stream grace has the query cancelled
/// instead of wedging the worker. The terminal message is returned, not
/// pushed: the worker loop publishes it after the stats ledger settles,
/// so a client that has read its verdict always sees consistent books.
fn stream_batches(
    shared: &Shared,
    job: &Job,
    outcome: Result<Vec<Tuple>, ServerError>,
) -> (Verdict, Result<(), ServerError>) {
    let rows = match outcome {
        Ok(rows) => rows,
        Err(e) => {
            let verdict = if e.is_cancelled() {
                Verdict::Cancelled
            } else {
                Verdict::Failed
            };
            return (verdict, Err(e));
        }
    };
    let batch_rows = shared.cfg.batch_rows.max(1);
    let mut sent = 0u64;
    // Rows move into their batches; none is copied on the way out.
    let mut rows = rows.into_iter();
    loop {
        let chunk: Vec<Tuple> = rows.by_ref().take(batch_rows).collect();
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len() as u64;
        if job.token.is_cancelled() {
            let err = ServerError::Query(QueryError::Cancelled {
                records_processed: sent,
            });
            return (Verdict::Cancelled, Err(err));
        }
        let grace_until = Instant::now() + shared.cfg.stream_grace;
        match job.results.push_deadline(Msg::Rows(chunk), grace_until) {
            Ok(()) => sent += len,
            // client gone; the verdict still lands in the stats
            Err(PushTimeout::Closed(_)) => return (Verdict::Cancelled, Err(ServerError::Stalled)),
            Err(PushTimeout::TimedOut(_)) => {
                // stalled consumer: cancel so any in-engine work (none,
                // at this point) and the client both observe it
                job.token.cancel();
                return (Verdict::Cancelled, Err(ServerError::Stalled));
            }
        }
    }
    (Verdict::Completed, Ok(()))
}
