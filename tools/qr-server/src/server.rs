//! The server proper: accept loop, per-connection threads, worker pool,
//! admission control, drain.
//!
//! ## Lifecycle of a solve request
//!
//! 1. A connection thread reads one line (bounded size, bounded time) and
//!    parses it.
//! 2. Admission: the request is rejected up front with a
//!    `shed` error when the queue is at capacity or when the EWMA-estimated
//!    wait already exceeds the request's own latency budget. Admitted
//!    requests get a fresh [`CancelToken`] and a reply channel and join the
//!    FIFO queue.
//! 3. A worker pops the job, maps the request's deadline onto the solve's
//!    `SolveControl` (the tightening builders guarantee the composition
//!    with the server's own ceiling can only shorten the budget), and runs
//!    it. Deadline-exceeded solves are *successful* responses carrying the
//!    best incumbent and full statistics — graceful degradation, not an
//!    error.
//! 4. While waiting for the reply, the connection thread polls its socket;
//!    a client that disconnected mid-solve trips the job's token, so the
//!    solver stops within one cancellation-poll interval instead of burning
//!    the queue's time on an answer nobody will read.
//!
//! The accept thread blocks in `accept`, and idle workers block on the queue's
//! condition variable, so a connection or a job is picked up the moment it
//! arrives.
//!
//! ## Drain
//!
//! Shutdown (wire op or [`ServerHandle::shutdown`]) sets the drain flag under
//! the queue lock, cancels every registered in-flight token (queued jobs
//! included), and wakes the workers. It then opens and drops one connection
//! to the listener, which returns the accept thread from `accept`; the accept
//! loop sees the flag and stops before it serves that connection. Workers
//! keep popping until the queue is empty — every admitted job gets exactly
//! one reply, most of them `Interrupted` responses produced nearly instantly
//! by their cancelled tokens — then exit, and the accept thread joins the
//! connection threads so buffered responses are flushed before
//! [`ServerHandle::join`] returns.

use crate::metrics::Metrics;
use crate::pool::SessionPool;
use crate::protocol::{
    render_ack, render_solve_response, Request, ResumeRequest, SolveRequest, WireError,
};
use crate::resume::ResumeTable;
use qr_core::{
    lock_or_recover, CancelToken, RefinementRequest, RefinementResult, RefinementSession,
    SolveControl,
};
use std::collections::VecDeque;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a connection thread re-checks shutdown, its per-line read
/// budget and its client's liveness while it reads a request line or waits
/// for a reply. Neither wait adds latency: a byte or a reply ends it at once.
/// It also paces the accept loop's retries after an `accept` error, and
/// bounds drain's wake-up connect.
const POLL: Duration = Duration::from_millis(25);

/// Dataset sessions the pool keeps (LRU beyond this).
const POOL_CAPACITY: usize = 4;

/// Socket write timeout for responses.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard per-solve wall-clock ceiling, composed (tightening) with any
/// per-request deadline.
const MAX_SOLVE_TIME: Duration = Duration::from_secs(120);

/// Suspended solves the resume table keeps (LRU beyond this).
const RESUME_CAPACITY: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Number of solve workers.
    pub workers: usize,
    /// Maximum queued (admitted, not yet started) solves before shedding.
    pub max_queue_depth: usize,
    /// Budget for receiving one complete request line; also the idle
    /// timeout between requests. A byte-dribbling client is cut off when
    /// its line is still incomplete this long after it started.
    pub read_timeout: Duration,
    /// How long an unredeemed resume token stays valid.
    pub resume_ttl: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_queue_depth: 16,
            read_timeout: Duration::from_secs(30),
            resume_ttl: Duration::from_secs(15 * 60),
        }
    }
}

/// What an admitted job asks a worker to run: a fresh solve, or the
/// continuation of a checkpointed one.
enum Work {
    Solve(SolveRequest),
    Resume(ResumeRequest),
}

impl Work {
    fn id(&self) -> Option<&crate::json::Json> {
        match self {
            Work::Solve(s) => s.id.as_ref(),
            Work::Resume(r) => r.id.as_ref(),
        }
    }

    fn deadline(&self) -> Option<Duration> {
        match self {
            Work::Solve(s) => s.deadline,
            Work::Resume(r) => r.deadline,
        }
    }
}

/// One admitted solve job.
struct Job {
    work: Work,
    token: CancelToken,
    token_id: u64,
    enqueued_at: Instant,
    /// Absolute deadline derived from the request's `deadline_ms` at
    /// admission time.
    deadline_at: Option<Instant>,
    reply: SyncSender<String>,
}

/// State shared by the accept loop, connection threads and workers.
pub struct Shared {
    config: ServerConfig,
    /// Where drain connects to wake the accept thread: the bound address,
    /// with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// In-flight (queued or solving) cancel tokens, for drain.
    active: Mutex<Vec<(u64, CancelToken)>>,
    next_token_id: AtomicU64,
    /// EWMA of completed solve wall-clock, in microseconds, for the
    /// estimated-wait admission check. Zero until the first completion.
    ewma_solve_us: AtomicU64,
    /// Server counters + aggregated solver statistics.
    pub metrics: Metrics,
    /// The session pool.
    pub pool: SessionPool,
    /// Suspended interrupted solves, redeemable by resume token.
    pub resume_table: ResumeTable,
}

impl Shared {
    /// Whether the server is draining. Named for the cancellation-poll
    /// convention: every blocking loop in this crate checks it.
    pub fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Trigger drain: stop accepting, cancel every in-flight token, clear
    /// the resume table (a draining server never resurrects a solve), wake
    /// the workers and the accept thread. Idempotent.
    pub fn begin_shutdown(&self) {
        {
            // Set under the queue lock: a worker checks the flag under this
            // lock before it waits, so it either sees the flag or is already
            // waiting when `notify_all` below wakes it.
            let _queue = lock_or_recover(&self.queue);
            self.shutdown.store(true, Ordering::Release);
        }
        for (_, token) in lock_or_recover(&self.active).iter() {
            token.cancel();
        }
        self.resume_table.clear();
        self.queue_cv.notify_all();
        // Return the accept thread from `accept`. A failed connect is
        // harmless: a listener whose backlog is full already has a
        // connection for `accept` to return.
        let _ = TcpStream::connect_timeout(&self.wake_addr, POLL);
    }

    /// Admission control: returns the reply channel for an accepted job, or
    /// a `shed` error with a retry-after hint.
    fn admit(&self, work: Work) -> Result<(Receiver<String>, CancelToken), WireError> {
        let depth = self.metrics.queue_depth.load(Ordering::Relaxed);
        let ewma_us = self.ewma_solve_us.load(Ordering::Relaxed);
        let estimated_wait = Duration::from_micros(ewma_us.saturating_mul(depth as u64 + 1));
        let retry_after = estimated_wait.max(Duration::from_millis(50));

        if depth >= self.config.max_queue_depth {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::shed(
                format!("queue is full ({depth} waiting)"),
                retry_after,
            ));
        }
        if let Some(budget) = work.deadline() {
            if estimated_wait > budget {
                self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                return Err(WireError::shed(
                    format!(
                        "estimated wait {:.0}ms exceeds the {:.0}ms deadline",
                        estimated_wait.as_secs_f64() * 1e3,
                        budget.as_secs_f64() * 1e3
                    ),
                    retry_after,
                ));
            }
        }

        let token = CancelToken::new();
        let token_id = self.next_token_id.fetch_add(1, Ordering::Relaxed);
        lock_or_recover(&self.active).push((token_id, token.clone()));
        let now = Instant::now();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let job = Job {
            deadline_at: work.deadline().map(|d| now + d),
            work,
            token: token.clone(),
            token_id,
            enqueued_at: now,
            reply: tx,
        };
        {
            // The drain check and the push share the queue lock: workers
            // only exit after observing should_stop with an empty queue
            // under this same lock, so a job pushed here is guaranteed a
            // worker (and exactly one reply).
            let mut queue = lock_or_recover(&self.queue);
            if self.should_stop() {
                drop(queue);
                self.unregister(token_id);
                return Err(WireError::interrupted("server is shutting down"));
            }
            self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            queue.push_back(job);
        }
        self.queue_cv.notify_one();
        Ok((rx, token))
    }

    fn unregister(&self, token_id: u64) {
        lock_or_recover(&self.active).retain(|(id, _)| *id != token_id);
    }

    fn note_solve_time(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let old = self.ewma_solve_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.ewma_solve_us.store(new, Ordering::Relaxed);
    }
}

/// A running server: its bound address plus handles to stop and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (metrics, pool) for inspection.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Trigger drain without waiting.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Drain and wait for every thread to finish flushing.
    pub fn join(self) {
        self.shared.begin_shutdown();
        self.wait();
    }

    /// Wait for the server to stop on its own (a wire `shutdown` request)
    /// without triggering the drain from this side.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone, so nothing can store a checkpoint anymore; this
        // final sweep makes "drain leaves the resume table empty" hold even
        // against a worker's store racing `begin_shutdown`'s clear.
        self.shared.resume_table.clear();
    }
}

/// Bind, spawn the accept loop and workers, and return immediately.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut wake_addr = addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let shared = Arc::new(Shared {
        wake_addr,
        pool: SessionPool::new(POOL_CAPACITY),
        resume_table: ResumeTable::new(RESUME_CAPACITY, config.resume_ttl),
        metrics: Metrics::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        active: Mutex::new(Vec::new()),
        next_token_id: AtomicU64::new(0),
        ewma_solve_us: AtomicU64::new(0),
        config,
    });

    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qr-server-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("qr-server-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// Serve connections until drain. `accept` blocks; drain's self-connect
/// returns it, and the flag check then stops the loop before that connection
/// is counted or served.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.should_stop() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("qr-server-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    connections.push(handle);
                }
            }
            // A persistent error (EMFILE, say) must not spin the loop.
            Err(_) => std::thread::sleep(POLL),
        }
        connections.retain(|h| !h.is_finished());
    }
    // Drain: flush in-flight connections before reporting the join done.
    for handle in connections {
        let _ = handle.join();
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    Line(String),
    /// Peer closed the connection.
    Eof,
    /// The line did not complete within the read budget.
    TimedOut,
    /// The line exceeded [`crate::protocol::MAX_LINE_BYTES`].
    Oversized,
    /// The server started draining.
    Shutdown,
    /// Hard socket error.
    Gone,
}

/// Read one `\n`-terminated line into `buf`-backed storage, polling so that
/// shutdown and the per-line budget are honored even against a client that
/// dribbles a byte at a time.
fn read_line_bounded(mut stream: &TcpStream, carry: &mut Vec<u8>, shared: &Shared) -> LineRead {
    let deadline = Instant::now() + shared.config.read_timeout;
    let mut chunk = [0u8; 4096];
    loop {
        // Size before newline: a line whose terminator arrives after the
        // limit is already oversized, so the check must not depend on how
        // the bytes were chunked into reads.
        if carry.len() > crate::protocol::MAX_LINE_BYTES {
            return LineRead::Oversized;
        }
        if let Some(nl) = carry.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = carry.drain(..=nl).collect();
            line.pop(); // the \n
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => LineRead::Line(s),
                Err(_) => LineRead::Line("\u{fffd}".to_string()), // parse fails -> bad_request
            };
        }
        if shared.should_stop() {
            return LineRead::Shutdown;
        }
        if Instant::now() >= deadline {
            return LineRead::TimedOut;
        }
        let _ = stream.set_read_timeout(Some(POLL));
        match stream.read(&mut chunk) {
            Ok(0) => return LineRead::Eof,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {}
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(_) => return LineRead::Gone,
        }
    }
}

/// Whether the peer has closed its end (EOF on peek). `Ok(n > 0)` means the
/// client pipelined more data and is certainly alive.
fn client_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => false,
        Err(e) if e.kind() == IoKind::Interrupted => false,
        Err(_) => true,
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut payload = Vec::with_capacity(line.len() + 1);
    payload.extend_from_slice(line.as_bytes());
    payload.push(b'\n');
    stream
        .write_all(&payload)
        .and_then(|_| stream.flush())
        .is_ok()
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut carry: Vec<u8> = Vec::new();

    loop {
        if shared.should_stop() {
            break;
        }
        let line = match read_line_bounded(&stream, &mut carry, shared) {
            LineRead::Line(l) => l,
            LineRead::Eof | LineRead::Gone => return,
            LineRead::Shutdown => break,
            LineRead::TimedOut => {
                shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                let err = WireError::bad_request(format!(
                    "no complete request line within {:.0}ms",
                    shared.config.read_timeout.as_secs_f64() * 1e3
                ));
                let _ = write_line(&mut stream, &err.render(None));
                return;
            }
            LineRead::Oversized => {
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                let err = WireError::bad_request(format!(
                    "request line exceeds the {}-byte limit",
                    crate::protocol::MAX_LINE_BYTES
                ));
                let _ = write_line(&mut stream, &err.render(None));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }

        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err((id, err)) => {
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                if !write_line(&mut stream, &err.render(id.as_ref())) {
                    return;
                }
                continue;
            }
        };

        match request {
            Request::Ping { id } => {
                if !write_line(&mut stream, &render_ack(id.as_ref(), "ping")) {
                    return;
                }
            }
            Request::Metrics { id } => {
                let body = shared.metrics.render(
                    id.as_ref(),
                    shared.pool.counters(),
                    shared.resume_table.counters(),
                );
                if !write_line(&mut stream, &body) {
                    return;
                }
            }
            Request::Shutdown { id } => {
                let _ = write_line(&mut stream, &render_ack(id.as_ref(), "shutdown"));
                shared.begin_shutdown();
                return;
            }
            Request::Solve(solve) => {
                let id = solve.id.clone();
                if !dispatch(&mut stream, Work::Solve(*solve), id, shared) {
                    return;
                }
            }
            Request::Resume(resume) => {
                shared.metrics.resume_ops.fetch_add(1, Ordering::Relaxed);
                let id = resume.id.clone();
                if !dispatch(&mut stream, Work::Resume(*resume), id, shared) {
                    return;
                }
            }
        }
    }

    // Draining: tell the client why the connection is going away.
    let err = WireError::interrupted("server is shutting down");
    let _ = write_line(&mut stream, &err.render(None));
}

/// Admit one unit of work and wait for its reply. Returns false when the
/// connection is unusable.
fn dispatch(
    stream: &mut TcpStream,
    work: Work,
    id: Option<crate::json::Json>,
    shared: &Arc<Shared>,
) -> bool {
    match shared.admit(work) {
        Err(err) => write_line(stream, &err.render(id.as_ref())),
        Ok((reply, token)) => await_reply(stream, &reply, &token, shared),
    }
}

/// Wait for the worker's reply while watching the socket for a client that
/// gave up. Returns false when the connection is unusable.
fn await_reply(
    stream: &mut TcpStream,
    reply: &Receiver<String>,
    token: &CancelToken,
    shared: &Shared,
) -> bool {
    let mut gone = false;
    // Liveness backstop: the worker replies well within the solve ceiling;
    // only a worker thread lost to a panic outside the solve's own
    // catch_unwind could miss it.
    let give_up = Instant::now() + MAX_SOLVE_TIME + Duration::from_secs(30);
    // lint: no-cancel-poll(the drain protocol guarantees exactly one reply per admitted job, and the give_up backstop bounds the wait)
    loop {
        match reply.recv_timeout(POLL) {
            Ok(body) => {
                return !gone && write_line(stream, &body);
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Worker vanished without replying; this is a bug in the
                // drain protocol, surfaced (not hidden) as internal.
                shared
                    .metrics
                    .internal_errors
                    .fetch_add(1, Ordering::Relaxed);
                let err = WireError::internal("worker dropped the request");
                return !gone && write_line(stream, &err.render(None));
            }
            Err(RecvTimeoutError::Timeout) => {
                // should_stop() is handled by the drain protocol itself: the
                // token registry cancels this job and the worker still
                // replies, so keep waiting for that one reply.
                if !gone && client_gone(stream) {
                    gone = true;
                    token.cancel();
                }
                if Instant::now() >= give_up {
                    shared
                        .metrics
                        .internal_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let err = WireError::internal("no worker replied within the solve ceiling");
                    return !gone && write_line(stream, &err.render(None));
                }
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_or_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.should_stop() {
                    break None;
                }
                // `admit` notifies after each push, and drain sets the flag
                // under this lock before it notifies every worker.
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else {
            // should_stop and the queue is empty: drain complete.
            return;
        };
        process_job(job, shared);
    }
}

fn process_job(job: Job, shared: &Arc<Shared>) {
    let metrics = &shared.metrics;
    metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    Metrics::add_latency(&metrics.queue_wait_us, job.enqueued_at.elapsed());

    let body = solve_job(&job, shared);
    shared.unregister(job.token_id);
    // The receiver may be gone (client disconnected); dropping the reply
    // then is correct — the job was cancelled and already counted.
    let _ = job.reply.try_send(body);
}

fn solve_job(job: &Job, shared: &Arc<Shared>) -> String {
    let metrics = &shared.metrics;
    let id = job.work.id();

    if job.token.is_cancelled() {
        metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        let reason = if shared.should_stop() {
            "cancelled before starting: server is draining"
        } else {
            "cancelled before starting: client went away"
        };
        return WireError::interrupted(reason).render(id);
    }

    // One execution control per segment: cancel on disconnect/drain, the
    // server's hard ceiling, and the request's own latency budget — the
    // tightening builders guarantee composing them can only shorten the
    // stop.
    let mut control = SolveControl::new()
        .with_cancel_token(job.token.clone())
        .with_time_limit(MAX_SOLVE_TIME);
    if let Some(deadline_at) = job.deadline_at {
        control = control.with_deadline(deadline_at);
    }

    match &job.work {
        Work::Solve(req) => {
            let session_start = Instant::now();
            let session = match shared.pool.get_or_build(&req.dataset) {
                Ok(s) => s,
                Err(message) => {
                    metrics.internal_errors.fetch_add(1, Ordering::Relaxed);
                    return WireError::internal(message).render(id);
                }
            };
            Metrics::add_latency(&metrics.session_us, session_start.elapsed());

            let request = RefinementRequest::new()
                .with_constraints(req.constraints.clone())
                .with_epsilon(req.epsilon)
                .with_distance(req.distance)
                .with_control(control);
            let solve_start = Instant::now();
            let solved =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.solve(&request)));
            finish_segment(job, shared, &req.dataset, &session, solved, solve_start)
        }
        Work::Resume(req) => {
            let session_start = Instant::now();
            // Redeeming is one-shot: a re-interrupted continuation is stored
            // again under a fresh token by `finish_segment`.
            let Some((dataset, session, resume)) = shared.resume_table.take(&req.token) else {
                metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                return WireError::bad_request("unknown, expired or already-redeemed resume token")
                    .render(id);
            };
            Metrics::add_latency(&metrics.session_us, session_start.elapsed());

            let solve_start = Instant::now();
            let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.resume(&resume, &control)
            }));
            finish_segment(job, shared, &dataset, &session, solved, solve_start)
        }
    }
}

/// Common tail of a fresh or resumed solve segment: map panics and errors
/// onto the wire taxonomy, fold statistics into the aggregate, and — when
/// the segment ended interrupted with open search state — park the
/// checkpoint in the resume table and hand its token to the client.
fn finish_segment(
    job: &Job,
    shared: &Arc<Shared>,
    dataset: &str,
    session: &Arc<RefinementSession>,
    solved: std::thread::Result<qr_core::Result<RefinementResult>>,
    solve_start: Instant,
) -> String {
    let metrics = &shared.metrics;
    let id = job.work.id();
    let solve_time = solve_start.elapsed();
    Metrics::add_latency(&metrics.solve_us, solve_time);

    match solved {
        Err(_) => {
            metrics.internal_errors.fetch_add(1, Ordering::Relaxed);
            WireError::internal("solver panicked; the fault is contained to this request")
                .render(id)
        }
        Ok(Err(e)) => {
            // Covers stale resume state too (`CoreError::StaleResume` after
            // a session mutation): the request named a checkpoint that no
            // longer matches reality, which is the client's problem, stated
            // structurally — the server stays healthy.
            metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            WireError::bad_request(format!("solve rejected: {e}")).render(id)
        }
        Ok(Ok(result)) => {
            metrics.record_stats(&result.stats);
            if result.stats.interrupted {
                if job.token.is_cancelled() {
                    metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                } else {
                    metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                shared.note_solve_time(solve_time);
            }
            // A draining server must not issue new tokens: begin_shutdown
            // already cleared the table and the final sweep in
            // `ServerHandle::wait` catches the store/clear race.
            let token = result
                .resume
                .as_ref()
                .filter(|_| !shared.should_stop())
                .map(|resume| {
                    shared
                        .resume_table
                        .store(dataset, Arc::clone(session), resume.clone())
                });
            render_solve_response(id, &result.outcome, &result.stats, token.as_deref())
        }
    }
}
