//! The bounded classification scheduler.
//!
//! One scheduler owns the [`VerdictStore`] and a fixed pool of worker
//! threads. Requests queue FIFO; each carries its own search budget
//! (`max_states` / `max_bytes` / a relative deadline). Before a search
//! runs the store is consulted — at submission *and* again when a worker
//! picks the job up, so a burst of isomorphic requests costs one search:
//! the first populates the store and the rest resolve as cache hits. Two
//! queued requests with the same signature additionally share one job
//! outright when the earlier job's budget covers the later request's
//! (never when a deadline is involved — deadlines are wall-clock and not
//! comparable across requests).

use crate::store::{StoredBudget, VerdictStore};
use ibgp_hunt::{classify_spec, signature, HuntOptions, ScenarioSpec, SpecKind, Verdict};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One classification request: the search knobs plus an optional
/// *relative* deadline, converted to an absolute [`HuntOptions::deadline`]
/// only when the search actually starts (queue wait must not eat the
/// search's time budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Search knobs (the `deadline` field is ignored; use `deadline_ms`).
    pub opts: HuntOptions,
    /// Wall-clock budget for the search itself, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with default knobs and no deadline.
    pub fn new(opts: HuntOptions) -> Self {
        Self {
            opts,
            deadline_ms: None,
        }
    }

    fn budget(&self) -> StoredBudget {
        StoredBudget::from(&self.opts)
    }
}

/// How a finished request was answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The verdict.
    pub verdict: Verdict,
    /// Whether it came from the store (no search ran for this request).
    pub cached: bool,
    /// The canonical signature the request resolved to.
    pub signature: String,
}

/// Result a ticket resolves to: the answer, or a spec/build error (or
/// the message of a search that panicked).
pub type JobResult = Result<Answer, String>;

struct Job {
    spec: ScenarioSpec,
    sig: String,
    request: Request,
    cell: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl Job {
    fn finish(&self, result: JobResult) {
        let mut cell = self.cell.lock().unwrap();
        *cell = Some(result);
        self.done.notify_all();
    }
}

/// A handle to one submitted request; [`Ticket::wait`] blocks until the
/// scheduler answers it.
pub struct Ticket {
    job: Arc<Job>,
}

impl Ticket {
    /// Block until the request is answered.
    pub fn wait(&self) -> JobResult {
        let mut cell = self.job.cell.lock().unwrap();
        loop {
            if let Some(r) = cell.as_ref() {
                return r.clone();
            }
            cell = self.job.done.wait(cell).unwrap();
        }
    }
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    running: Vec<Arc<Job>>,
    shutdown: bool,
}

struct Inner {
    store: Mutex<VerdictStore>,
    queue: Mutex<Queue>,
    work: Condvar,
    searches_run: AtomicU64,
    cache_hits: AtomicU64,
}

/// The scheduler. Dropping it shuts the worker pool down (queued jobs
/// are answered with an error).
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// A scheduler over `store` with `workers` concurrent searches.
    pub fn new(store: VerdictStore, workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            store: Mutex::new(store),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                running: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            searches_run: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Submit one spec for classification. Returns immediately; the
    /// ticket resolves when the store answers or a worker finishes.
    pub fn submit(&self, mut spec: ScenarioSpec, request: Request) -> Ticket {
        // Fold the loop-prevention knob into the spec *before* the
        // signature is computed: the mechanics change verdicts, so an
        // lp request must never share a store entry or an in-flight job
        // with the plain classification of the same structure.
        if request.opts.loop_prevention {
            if let SpecKind::Reflection(r) = &mut spec.kind {
                r.loop_prevention = true;
            }
        }
        let sig = signature(&spec);
        // Answer straight from the store when a servable entry exists.
        {
            let store = self.inner.store.lock().unwrap();
            if let Some(v) = store.lookup(&sig, &request.budget(), request.opts.solver) {
                self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
                let job = Arc::new(Job {
                    spec,
                    sig: sig.clone(),
                    request,
                    cell: Mutex::new(Some(Ok(Answer {
                        verdict: v.clone(),
                        cached: true,
                        signature: sig,
                    }))),
                    done: Condvar::new(),
                });
                return Ticket { job };
            }
        }
        let mut queue = self.inner.queue.lock().unwrap();
        // In-flight dedup: ride an existing job whose budget covers this
        // request. Deadline jobs are never shared — their effective
        // budget is wall-clock and not comparable — and neither are jobs
        // asking for a different classification backend.
        if request.deadline_ms.is_none() {
            let candidate = queue.jobs.iter().chain(queue.running.iter()).find(|j| {
                j.sig == sig
                    && j.request.deadline_ms.is_none()
                    && j.request.opts.solver == request.opts.solver
                    && j.request.budget().covers(&request.budget())
            });
            if let Some(job) = candidate {
                return Ticket {
                    job: Arc::clone(job),
                };
            }
        }
        let job = Arc::new(Job {
            spec,
            sig,
            request,
            cell: Mutex::new(None),
            done: Condvar::new(),
        });
        queue.jobs.push_back(Arc::clone(&job));
        drop(queue);
        self.inner.work.notify_one();
        Ticket { job }
    }

    /// Searches the worker pool actually ran.
    pub fn searches_run(&self) -> u64 {
        self.inner.searches_run.load(Ordering::Relaxed)
    }

    /// Requests answered from the store without a search.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Run `f` with the store locked (for size inspection or snapshots).
    pub fn with_store<R>(&self, f: impl FnOnce(&VerdictStore) -> R) -> R {
        f(&self.inner.store.lock().unwrap())
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.queue.lock().unwrap();
            queue.shutdown = true;
            for job in queue.jobs.drain(..) {
                job.finish(Err("scheduler shut down".into()));
            }
        }
        self.inner.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(job) = queue.jobs.pop_front() {
                    queue.running.push(Arc::clone(&job));
                    break job;
                }
                queue = inner.work.wait(queue).unwrap();
            }
        };
        run_job(inner, &job);
        let mut queue = inner.queue.lock().unwrap();
        queue.running.retain(|j| !Arc::ptr_eq(j, &job));
    }
}

fn run_job(inner: &Inner, job: &Job) {
    // Re-check the store: an isomorphic job may have completed while this
    // one sat in the queue.
    {
        let store = inner.store.lock().unwrap();
        if let Some(v) = store.lookup(&job.sig, &job.request.budget(), job.request.opts.solver) {
            inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            job.finish(Ok(Answer {
                verdict: v.clone(),
                cached: true,
                signature: job.sig.clone(),
            }));
            return;
        }
    }
    let mut opts = job.request.opts;
    opts.deadline = job
        .request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    inner.searches_run.fetch_add(1, Ordering::Relaxed);
    // A panicking search answers its ticket with an error instead of
    // killing the worker: the job then leaves `running` as usual, so an
    // isomorphic request starts a job of its own rather than riding one
    // that will never finish.
    let classified = catch_unwind(AssertUnwindSafe(|| classify_spec(&job.spec, &opts)));
    let classified = match classified {
        Ok(classified) => classified,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            job.finish(Err(format!("search panicked: {what}")));
            return;
        }
    };
    match classified {
        Ok(verdict) => {
            let mut store = inner.store.lock().unwrap();
            if let Err(e) = store.insert(&job.sig, &verdict, job.request.budget()) {
                drop(store);
                job.finish(Err(format!("verdict store write failed: {e}")));
                return;
            }
            drop(store);
            job.finish(Ok(Answer {
                verdict,
                cached: false,
                signature: job.sig.clone(),
            }));
        }
        Err(e) => job.finish(Err(format!("invalid scenario: {e}"))),
    }
}
