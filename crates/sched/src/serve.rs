//! Overload-safe concurrent NDJSON service over the [`Scheduler`].
//!
//! The `corescope-serve` binary is a thin CLI over [`Server`]; everything
//! behavioural lives here so it can be exercised in-process by tests and
//! the perf ledger's `serve` workload. The service applies the engine's
//! robustness philosophy — *shed, don't hang; typed errors instead of
//! watchdog timeouts* — to the serving layer itself. A request passes
//! four gates, in order:
//!
//! 1. **parse** — byte noise, invalid UTF-8 and oversized lines get a
//!    typed `"kind":"bad-request"` / `"kind":"too-large"` response; the
//!    connection survives;
//! 2. **admission** — a global bounded in-flight budget
//!    ([`ServeConfig::max_inflight`]); over budget means an immediate
//!    `{"ok":false,"kind":"overloaded","retry_after_ms":…}` instead of
//!    unbounded queueing;
//! 3. **quota** — a per-peer in-flight cap ([`ServeConfig::quota`]) so
//!    one greedy client cannot starve the rest (`"kind":"quota"`);
//! 4. **deadline** — a per-request `"deadline_ms"` (or
//!    [`ServeConfig::default_deadline_ms`]) sheds work whose deadline
//!    passed while it sat behind a slow batch (`"kind":"deadline"`),
//!    via [`Scheduler::run_batch_where`].
//!
//! Every admitted request produces exactly one response line, in input
//! order per connection — sheds included — so clients never desync.
//! Shutdown ([`Server::request_shutdown`], wired to SIGTERM/SIGINT by
//! the binary) stops the accept loop, lets every connection finish or
//! deadline-out its in-flight chunk, flushes, and joins: no torn lines.

use crate::json::{self, Value};
use crate::scenario::Scenario;
use crate::scheduler::{BatchOutcome, Scheduler};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handles one parsed artifact request (`{"artifact":"t2",…}`), returning
/// the complete response line. Injected by the harness layer — this crate
/// sits below the artifact catalogue and cannot run them itself.
pub type ArtifactRunner = Box<dyn Fn(&Value) -> String + Send + Sync>;

/// Service limits and defaults. All are per-[`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Max requests gathered into one scheduler batch per connection.
    pub batch: usize,
    /// Global bound on admitted, not-yet-answered requests.
    pub max_inflight: usize,
    /// Max concurrent TCP connections; excess clients get one
    /// `overloaded` line and a close.
    pub max_clients: usize,
    /// Per-peer bound on admitted, not-yet-answered requests.
    pub quota: usize,
    /// Deadline applied to requests that carry no `"deadline_ms"`.
    pub default_deadline_ms: Option<f64>,
    /// Longest accepted request line; longer lines are discarded and
    /// answered with `"kind":"too-large"`.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch: 32,
            max_inflight: 1024,
            max_clients: 64,
            quota: 256,
            default_deadline_ms: None,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Monotonic service counters; snapshot via [`Server::stats`].
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicUsize,
    rejected_clients: AtomicUsize,
    requests: AtomicUsize,
    responses: AtomicUsize,
    shed_overloaded: AtomicUsize,
    shed_quota: AtomicUsize,
    shed_deadline: AtomicUsize,
    too_large: AtomicUsize,
    bad_requests: AtomicUsize,
    engine_errors: AtomicUsize,
}

/// A snapshot of service activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// TCP connections accepted (stdin mode counts as none).
    pub connections: usize,
    /// Connections turned away at the `max_clients` gate.
    pub rejected_clients: usize,
    /// Request lines received (including unparseable ones).
    pub requests: usize,
    /// Response lines written.
    pub responses: usize,
    /// Requests rejected at the global admission gate.
    pub shed_overloaded: usize,
    /// Requests rejected at the per-peer quota gate.
    pub shed_quota: usize,
    /// Requests shed because their deadline passed before dispatch.
    pub shed_deadline: usize,
    /// Lines longer than `max_line_bytes`.
    pub too_large: usize,
    /// Lines that failed to parse as a request.
    pub bad_requests: usize,
    /// Requests the engine rejected (invalid scenario, failed run).
    pub engine_errors: usize,
}

/// Why admission refused a request.
enum Rejection {
    Overloaded,
    Quota,
}

/// One gathered input line, before parsing.
enum Item {
    Line(Vec<u8>),
    TooLarge,
}

/// What [`read_bounded_line`] saw.
enum ReadLine {
    /// A complete line (newline stripped; possibly the unterminated tail
    /// before EOF).
    Line(Vec<u8>),
    /// The line exceeded `max` bytes; the excess was discarded up to the
    /// next newline.
    TooLarge,
    /// End of input.
    Eof,
    /// The reader timed out with no pending data (TCP read timeout).
    Idle,
    /// Shutdown was requested while waiting for data.
    Shutdown,
}

/// One request's fate after the admission gates, pre-dispatch.
enum Slot {
    /// Response already determined (parse error, admission shed, …).
    Ready(String),
    /// An admitted scenario: an index into the chunk's batch (deadlines
    /// live in the parallel `deadlines` vector).
    Scenario { index: usize },
    /// An admitted artifact request, run inline at emission time.
    Artifact { value: Value, deadline: Option<Instant> },
}

/// The concurrent NDJSON service. Share by reference; every method takes
/// `&self`.
pub struct Server {
    sched: Arc<Scheduler>,
    config: ServeConfig,
    runner: Option<ArtifactRunner>,
    shutdown: Arc<AtomicBool>,
    inflight: AtomicUsize,
    clients: AtomicUsize,
    peers: Mutex<HashMap<String, usize>>,
    /// Exponential moving average of per-request service time, µs; feeds
    /// the `retry_after_ms` hint on overload responses.
    service_ema_us: AtomicU64,
    counters: Counters,
}

impl Server {
    /// A server over `sched` with the given limits.
    pub fn new(sched: Arc<Scheduler>, config: ServeConfig) -> Self {
        Self {
            sched,
            config,
            runner: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            inflight: AtomicUsize::new(0),
            clients: AtomicUsize::new(0),
            peers: Mutex::new(HashMap::new()),
            service_ema_us: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// Installs the artifact handler (see [`ArtifactRunner`]). Without
    /// one, artifact requests get a typed `bad-request` response.
    pub fn with_artifact_runner(mut self, runner: ArtifactRunner) -> Self {
        self.runner = Some(runner);
        self
    }

    /// The scheduler this server dispatches into.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The shutdown flag, for wiring to signal handlers.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Begins a graceful drain: stop accepting, finish in-flight work,
    /// flush, return.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Serves one NDJSON stream (stdin mode, or one TCP connection).
    /// `peer` keys the per-peer quota.
    ///
    /// # Errors
    ///
    /// Only unrecoverable I/O errors on `input`/`out` propagate; protocol
    /// problems become typed response lines.
    pub fn serve_io(
        &self,
        mut input: impl BufRead,
        out: &mut impl Write,
        peer: &str,
    ) -> std::io::Result<()> {
        loop {
            let mut chunk: Vec<(Item, Instant)> = Vec::new();
            let mut done = false;
            while chunk.len() < self.config.batch {
                if self.shutdown.load(Ordering::Relaxed) {
                    done = true;
                    break;
                }
                match read_bounded_line(&mut input, self.config.max_line_bytes, &self.shutdown)? {
                    ReadLine::Eof | ReadLine::Shutdown => {
                        done = true;
                        break;
                    }
                    ReadLine::Idle => {
                        // No new data within the read timeout: answer what
                        // we have instead of batching a stalled client.
                        if chunk.is_empty() {
                            continue;
                        }
                        break;
                    }
                    ReadLine::TooLarge => chunk.push((Item::TooLarge, Instant::now())),
                    ReadLine::Line(bytes) => {
                        if bytes.iter().all(u8::is_ascii_whitespace) {
                            continue;
                        }
                        chunk.push((Item::Line(bytes), Instant::now()));
                    }
                }
            }
            if !chunk.is_empty() {
                self.process_chunk(&chunk, out, peer)?;
            }
            if done {
                return Ok(());
            }
        }
    }

    /// Runs one gathered chunk through parse → admission → quota →
    /// deadline → dispatch and writes one response line per item, in
    /// input order. The whole chunk's replies go out in one `write_all`:
    /// per-line writes on a socket send small segments that Nagle and
    /// the client's delayed ACK hold back for tens of milliseconds.
    fn process_chunk(
        &self,
        chunk: &[(Item, Instant)],
        out: &mut impl Write,
        peer: &str,
    ) -> std::io::Result<()> {
        self.counters.requests.fetch_add(chunk.len(), Ordering::Relaxed);
        let mut slots: Vec<Slot> = Vec::with_capacity(chunk.len());
        let mut scenarios: Vec<Scenario> = Vec::new();
        let mut deadlines: Vec<Option<Instant>> = Vec::new();
        let mut admitted = 0usize;

        for (item, received) in chunk {
            let bytes = match item {
                Item::TooLarge => {
                    self.counters.too_large.fetch_add(1, Ordering::Relaxed);
                    slots.push(Slot::Ready(error_line(
                        "too-large",
                        &format!("request line exceeds {} bytes", self.config.max_line_bytes),
                    )));
                    continue;
                }
                Item::Line(bytes) => bytes,
            };
            let value = match json::parse_bytes(bytes) {
                Ok(value) => value,
                Err(e) => {
                    self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    slots.push(Slot::Ready(error_line("bad-request", &e)));
                    continue;
                }
            };
            let deadline = match self.deadline_of(&value, *received) {
                Ok(deadline) => deadline,
                Err(e) => {
                    self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    slots.push(Slot::Ready(error_line("bad-request", &e)));
                    continue;
                }
            };
            match self.try_admit(peer) {
                Err(Rejection::Overloaded) => {
                    self.counters.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                    slots.push(Slot::Ready(overload_line("overloaded", self.retry_after_ms())));
                    continue;
                }
                Err(Rejection::Quota) => {
                    self.counters.shed_quota.fetch_add(1, Ordering::Relaxed);
                    slots.push(Slot::Ready(overload_line("quota", self.retry_after_ms())));
                    continue;
                }
                Ok(()) => admitted += 1,
            }
            if value.get("artifact").is_some() {
                slots.push(Slot::Artifact { value, deadline });
            } else {
                match Scenario::from_json(&value) {
                    Ok(scenario) => {
                        slots.push(Slot::Scenario { index: scenarios.len() });
                        scenarios.push(scenario);
                        deadlines.push(deadline);
                    }
                    Err(e) => {
                        // Admitted, then failed scenario decode: release
                        // the permit again and answer with the parse
                        // error.
                        self.release(peer, 1);
                        admitted -= 1;
                        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        slots.push(Slot::Ready(error_line("bad-request", &e)));
                    }
                }
            }
        }

        let started = Instant::now();
        let outcomes = self.sched.run_batch_where(&scenarios, |i| {
            deadlines[i].is_some_and(|deadline| Instant::now() > deadline)
        });
        let batch_ms = started.elapsed().as_secs_f64() * 1e3;

        let mut reply = String::new();
        for slot in slots {
            let line = match slot {
                Slot::Ready(line) => line,
                Slot::Scenario { index } => match &outcomes[index] {
                    BatchOutcome::Done(completed) => format!(
                        "{{\"ok\":true,\"digest\":\"{}\",\"cache\":\"{}\",\
                         \"batch_ms\":{},\"result\":{}}}",
                        completed.digest,
                        completed.tier.key(),
                        json::num(batch_ms),
                        completed.result.to_json()
                    ),
                    BatchOutcome::Shed => {
                        self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                        error_line("deadline", "deadline expired before dispatch")
                    }
                    BatchOutcome::Failed(e) => {
                        self.counters.engine_errors.fetch_add(1, Ordering::Relaxed);
                        error_line("engine", &e.to_string())
                    }
                },
                Slot::Artifact { value, deadline } => {
                    if deadline.is_some_and(|deadline| Instant::now() > deadline) {
                        self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                        error_line("deadline", "deadline expired before dispatch")
                    } else {
                        match &self.runner {
                            Some(runner) => runner(&value),
                            None => error_line(
                                "bad-request",
                                "artifact requests are not supported by this server",
                            ),
                        }
                    }
                }
            };
            reply.push_str(&line);
            reply.push('\n');
        }
        let written = out.write_all(reply.as_bytes()).and_then(|()| out.flush());
        if written.is_ok() {
            self.counters.responses.fetch_add(chunk.len(), Ordering::Relaxed);
        }
        // Release even when the client is gone: its permits must not
        // count against the admission gates forever.
        self.release(peer, admitted);
        if admitted > 0 {
            self.note_service_time(started.elapsed(), admitted);
        }
        written
    }

    /// Accepts TCP clients until shutdown, one thread per connection, and
    /// drains them all before returning. Accept-time errors on a single
    /// client (failed `peer_addr`, `try_clone`) are logged and skipped —
    /// they never kill the listener.
    ///
    /// # Errors
    ///
    /// Only listener-level failures (e.g. `set_nonblocking`) propagate.
    pub fn listen(&self, listener: TcpListener) -> std::io::Result<()> {
        // Nonblocking accept + poll so shutdown is observed promptly.
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::Relaxed) {
                let (stream, peer) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        eprintln!("corescope-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(25));
                        continue;
                    }
                };
                self.counters.connections.fetch_add(1, Ordering::Relaxed);
                if self.clients.fetch_add(1, Ordering::Relaxed) >= self.config.max_clients {
                    self.clients.fetch_sub(1, Ordering::Relaxed);
                    self.counters.rejected_clients.fetch_add(1, Ordering::Relaxed);
                    let line = overload_line("overloaded", self.retry_after_ms()) + "\n";
                    let _ = (&stream).write_all(line.as_bytes());
                    close_without_reset(&stream);
                    continue;
                }
                scope.spawn(move || {
                    if let Err(e) = self.handle_client(stream, &peer.ip().to_string()) {
                        eprintln!("corescope-serve: client {peer}: {e}");
                    }
                    self.clients.fetch_sub(1, Ordering::Relaxed);
                });
            }
            // Scope exit joins every connection thread: each observes the
            // shutdown flag within its read timeout, answers its gathered
            // chunk and flushes — the drain guarantee.
        });
        Ok(())
    }

    fn handle_client(&self, stream: TcpStream, peer: &str) -> std::io::Result<()> {
        // The read timeout is the drain latency bound: an idle or
        // slow-loris connection notices shutdown within ~100ms.
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        // Each chunk's replies leave in one write, so Nagle has nothing
        // to coalesce; left on, it would hold a chunk's trailing segment
        // until the client's delayed ACK of the one before it.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let served = self.serve_io(reader, &mut writer, peer);
        close_without_reset(&writer);
        served
    }

    /// Global admission then per-peer quota; both are released in
    /// [`Server::release`].
    fn try_admit(&self, peer: &str) -> Result<(), Rejection> {
        if self.inflight.fetch_add(1, Ordering::Relaxed) >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(Rejection::Overloaded);
        }
        let mut peers = match self.peers.lock() {
            Ok(peers) => peers,
            Err(poisoned) => poisoned.into_inner(),
        };
        let count = peers.entry(peer.to_string()).or_insert(0);
        if *count >= self.config.quota {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(Rejection::Quota);
        }
        *count += 1;
        Ok(())
    }

    fn release(&self, peer: &str, n: usize) {
        if n == 0 {
            return;
        }
        self.inflight.fetch_sub(n, Ordering::Relaxed);
        let mut peers = match self.peers.lock() {
            Ok(peers) => peers,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(count) = peers.get_mut(peer) {
            *count = count.saturating_sub(n);
            if *count == 0 {
                peers.remove(peer);
            }
        }
    }

    /// Extracts the request deadline: explicit `"deadline_ms"` beats the
    /// configured default; both are relative to when the line arrived. A
    /// deadline too far out for any `Instant` to hold never expires, so it
    /// is none.
    fn deadline_of(&self, value: &Value, received: Instant) -> Result<Option<Instant>, String> {
        let ms = match value.get("deadline_ms") {
            None => self.config.default_deadline_ms,
            Some(v) => Some(
                v.as_f64()
                    .filter(|ms| ms.is_finite() && *ms >= 0.0)
                    .ok_or("\"deadline_ms\" must be a non-negative number")?,
            ),
        };
        Ok(ms.and_then(|ms| {
            Duration::try_from_secs_f64(ms / 1e3).ok().and_then(|d| received.checked_add(d))
        }))
    }

    /// How long an overloaded client should back off: the smoothed
    /// per-request service time scaled by the current queue pressure.
    fn retry_after_ms(&self) -> u64 {
        let ema_us = self.service_ema_us.load(Ordering::Relaxed);
        let per_request_ms = if ema_us == 0 { 50 } else { (ema_us / 1000).max(1) };
        let depth = self.inflight.load(Ordering::Relaxed) / self.sched.jobs().max(1) + 1;
        (per_request_ms * depth as u64).clamp(10, 30_000)
    }

    fn note_service_time(&self, elapsed: Duration, admitted: usize) {
        let sample_us = (elapsed.as_micros() / admitted.max(1) as u128) as u64;
        let prev = self.service_ema_us.load(Ordering::Relaxed);
        let next = if prev == 0 { sample_us } else { prev - prev / 8 + sample_us / 8 };
        self.service_ema_us.store(next, Ordering::Relaxed);
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            rejected_clients: self.counters.rejected_clients.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            responses: self.counters.responses.load(Ordering::Relaxed),
            shed_overloaded: self.counters.shed_overloaded.load(Ordering::Relaxed),
            shed_quota: self.counters.shed_quota.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            too_large: self.counters.too_large.load(Ordering::Relaxed),
            bad_requests: self.counters.bad_requests.load(Ordering::Relaxed),
            engine_errors: self.counters.engine_errors.load(Ordering::Relaxed),
        }
    }

    /// One-line human summary, printed next to the scheduler's at
    /// shutdown.
    pub fn summary(&self) -> String {
        let s = self.stats();
        let mut line = format!(
            "serve: connections {}, requests {}, responses {}, shed {} (overloaded {}, \
             quota {}, deadline {}), too-large {}, bad requests {}, engine errors {}",
            s.connections,
            s.requests,
            s.responses,
            s.shed_overloaded + s.shed_quota + s.shed_deadline,
            s.shed_overloaded,
            s.shed_quota,
            s.shed_deadline,
            s.too_large,
            s.bad_requests,
            s.engine_errors,
        );
        let unwritable = self.sched.cache_stats().unwritable;
        if unwritable > 0 {
            // A counted warning, not a failure: the service stays up on
            // an unwritable cache (read-only mount, disk full), but the
            // operator should know every engine run is being recomputed
            // instead of persisted.
            line.push_str(&format!(", cache unwritable {unwritable} (degraded)"));
        }
        line
    }
}

/// A typed error response. The `error` field leads (wire compatibility
/// with pre-typed clients); `kind` is the machine-readable class.
pub fn error_line(kind: &str, message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\",\"kind\":\"{kind}\"}}", json::escape(message))
}

/// A shed response carrying the back-off hint.
fn overload_line(kind: &str, retry_after_ms: u64) -> String {
    format!("{{\"ok\":false,\"kind\":\"{kind}\",\"retry_after_ms\":{retry_after_ms}}}")
}

/// Most bytes [`close_without_reset`] discards before giving up.
const CLOSE_DRAIN_LIMIT: usize = 1 << 20;

/// Ends a client connection with a FIN, not a reset. Closing a socket
/// whose receive queue still holds unread bytes makes the kernel send a
/// RST, and the peer then reads `ECONNRESET` instead of EOF — losing any
/// response lines it had not read yet. That happens whenever the server
/// stops reading first: a shutdown seen before a connection's first
/// read, a slow-loris partial line, a rejected excess client. So: send
/// FIN, then discard whatever the client has already sent (nonblocking
/// and bounded, so a flooding client cannot pin the thread) before the
/// socket drops.
fn close_without_reset(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut scratch = [0u8; 4096];
    let mut drained = 0;
    while drained < CLOSE_DRAIN_LIMIT {
        match (&*stream).read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => drained += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes. Longer lines
/// are consumed (discarded) to the next newline and reported as
/// [`ReadLine::TooLarge`] — bounded memory, connection intact. Uses
/// `fill_buf`/`consume` directly: `read_until` would buffer the whole
/// oversized line before we could measure it.
fn read_bounded_line(
    input: &mut impl BufRead,
    max: usize,
    shutdown: &AtomicBool,
) -> std::io::Result<ReadLine> {
    let mut acc: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::Relaxed) {
                    return Ok(ReadLine::Shutdown);
                }
                if acc.is_empty() && !overflow {
                    return Ok(ReadLine::Idle);
                }
                continue; // mid-line: keep waiting for the rest
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            if overflow {
                return Ok(ReadLine::TooLarge);
            }
            if acc.is_empty() {
                return Ok(ReadLine::Eof);
            }
            return Ok(ReadLine::Line(acc)); // unterminated final line
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow {
                    acc.extend_from_slice(&buf[..pos]);
                }
                input.consume(pos + 1);
                if overflow || acc.len() > max {
                    return Ok(ReadLine::TooLarge);
                }
                return Ok(ReadLine::Line(acc));
            }
            None => {
                let len = buf.len();
                if !overflow {
                    acc.extend_from_slice(buf);
                    if acc.len() > max {
                        overflow = true;
                        acc = Vec::new(); // stop buffering the flood
                    }
                }
                input.consume(len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn server(config: ServeConfig) -> Server {
        Server::new(Arc::new(Scheduler::new(1)), config)
    }

    fn run(server: &Server, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        server.serve_io(Cursor::new(input.as_bytes().to_vec()), &mut out, "test").unwrap();
        String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
    }

    const BSP: &str = r#"{"system":"dmz","nranks":2,"workload":{"kind":"bsp","steps":2,"flops_per_step":1e6,"bytes_per_step":1e6,"sync_bytes":8}}"#;

    #[test]
    fn one_response_per_request_in_order() {
        let server = server(ServeConfig::default());
        let lines = run(&server, &format!("{BSP}\nnot json\n{BSP}\n"));
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ok\":true,\"digest\":"));
        assert!(lines[1].starts_with("{\"ok\":false,\"error\":"), "{}", lines[1]);
        assert!(lines[1].contains("\"kind\":\"bad-request\""));
        assert!(lines[2].starts_with("{\"ok\":true,\"digest\":"));
        assert_eq!(server.stats().responses, 3);
    }

    /// A writer that records every `write` call separately.
    #[derive(Default)]
    struct WriteLog {
        writes: Vec<Vec<u8>>,
        fail: bool,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail {
                return Err(ErrorKind::BrokenPipe.into());
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_chunk_is_answered_with_one_write_in_input_order() {
        let server = server(ServeConfig { max_line_bytes: 256, ..ServeConfig::default() });
        let flood = "x".repeat(1000);
        let input = format!("{BSP}\nnot json\n{flood}\n{{\"artifact\":\"t1\"}}\n");
        let mut out = WriteLog::default();
        server.serve_io(Cursor::new(input.into_bytes()), &mut out, "test").unwrap();
        assert_eq!(out.writes.len(), 1, "one write per chunk");
        let text = String::from_utf8(out.writes.remove(0)).unwrap();
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(lines.len(), 4, "{text}");
        // The scenario reply is exact up to its batch wall time.
        let scenario = Scenario::from_json(&json::parse(BSP).unwrap()).unwrap();
        let head = format!(
            "{{\"ok\":true,\"digest\":\"{}\",\"cache\":\"miss\",\"batch_ms\":",
            scenario.digest()
        );
        let tail = format!(",\"result\":{}}}", scenario.run().unwrap().to_json());
        assert!(lines[0].starts_with(&head) && lines[0].ends_with(&tail), "{}", lines[0]);
        let parse_error = json::parse_bytes(b"not json").unwrap_err();
        assert_eq!(lines[1], error_line("bad-request", &parse_error));
        assert_eq!(lines[2], error_line("too-large", "request line exceeds 256 bytes"));
        assert_eq!(
            lines[3],
            error_line("bad-request", "artifact requests are not supported by this server")
        );
        assert_eq!(server.stats().responses, 4);
    }

    #[test]
    fn a_failed_reply_write_still_releases_its_permits() {
        let server = server(ServeConfig::default());
        let mut out = WriteLog { fail: true, ..WriteLog::default() };
        let input = format!("{BSP}\n{BSP}\n");
        assert!(server.serve_io(Cursor::new(input.into_bytes()), &mut out, "gone").is_err());
        assert_eq!(server.inflight.load(Ordering::Relaxed), 0);
        assert!(server.peers.lock().unwrap().is_empty());
        assert_eq!(server.stats().responses, 0);
    }

    #[test]
    fn invalid_utf8_is_a_typed_bad_request_not_an_io_error() {
        let server = server(ServeConfig::default());
        let mut input = Vec::from(&b"\xff\xfe\x80 garbage"[..]);
        input.push(b'\n');
        input.extend_from_slice(BSP.as_bytes());
        input.push(b'\n');
        let mut out = Vec::new();
        server.serve_io(Cursor::new(input), &mut out, "test").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"bad-request\""));
        assert!(lines[0].contains("invalid UTF-8"));
        assert!(lines[1].starts_with("{\"ok\":true"));
    }

    #[test]
    fn oversized_lines_get_a_typed_response_and_bounded_memory() {
        // BSP fits in 256 bytes; the flood does not.
        let server = server(ServeConfig { max_line_bytes: 256, ..ServeConfig::default() });
        let flood = "x".repeat(100_000);
        let lines = run(&server, &format!("{flood}\n{BSP}\n"));
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"too-large\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "next request still served");
        assert_eq!(server.stats().too_large, 1);
    }

    #[test]
    fn quota_rejections_are_immediate_and_recover() {
        let server = server(ServeConfig { quota: 2, ..ServeConfig::default() });
        let lines = run(&server, &format!("{BSP}\n{BSP}\n{BSP}\n{BSP}\n"));
        assert_eq!(lines.len(), 4);
        // Two admitted, two rejected at the quota gate.
        let quota: Vec<_> = lines.iter().filter(|l| l.contains("\"kind\":\"quota\"")).collect();
        assert_eq!(quota.len(), 2, "{lines:?}");
        assert!(quota[0].contains("\"retry_after_ms\":"));
        assert_eq!(server.stats().shed_quota, 2);
        // Permits were released with the chunk: a later chunk admits again.
        let later = run(&server, &format!("{BSP}\n"));
        assert!(later[0].starts_with("{\"ok\":true"), "{later:?}");
    }

    #[test]
    fn admission_gate_sheds_with_retry_hint() {
        let server = server(ServeConfig { max_inflight: 1, ..ServeConfig::default() });
        let lines = run(&server, &format!("{BSP}\n{BSP}\n"));
        assert!(lines[0].starts_with("{\"ok\":true"));
        assert!(lines[1].contains("\"kind\":\"overloaded\""), "{}", lines[1]);
        assert!(lines[1].contains("\"retry_after_ms\":"));
        assert_eq!(server.stats().shed_overloaded, 1);
    }

    #[test]
    fn expired_deadlines_shed_with_a_typed_response() {
        let server = server(ServeConfig::default());
        // deadline_ms: 0 expires before dispatch with certainty. The
        // second request is a *different* scenario: a digest twin would
        // (correctly) ride along on the computed result instead.
        let request = BSP.replacen('{', "{\"deadline_ms\":0,", 1);
        let other = BSP.replace("\"steps\":2", "\"steps\":3");
        let lines = run(&server, &format!("{request}\n{other}\n"));
        assert!(lines[0].contains("\"kind\":\"deadline\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "undeadlined twin unaffected");
        assert_eq!(server.stats().shed_deadline, 1);
        assert_eq!(server.scheduler().stats().shed, 1);
    }

    #[test]
    fn out_of_bounds_params_are_a_bad_request_and_the_next_line_is_served() {
        let server = server(ServeConfig::default());
        let request = r#"{"system":"dmz","nranks":2,"workload":{"kind":"pingpong","bytes":1024,"reps":2},"params":{"dram_bandwidth":0}}"#;
        let lines = run(&server, &format!("{request}\n{BSP}\n"));
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"bad-request\""), "{}", lines[0]);
        assert!(lines[0].contains("dram_bandwidth"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "{}", lines[1]);
        assert_eq!(server.stats().bad_requests, 1);
    }

    #[test]
    fn bad_deadline_is_a_bad_request() {
        let server = server(ServeConfig::default());
        let request = BSP.replacen('{', "{\"deadline_ms\":\"soon\",", 1);
        let lines = run(&server, &format!("{request}\n"));
        assert!(lines[0].contains("\"kind\":\"bad-request\""), "{}", lines[0]);
        assert!(lines[0].contains("deadline_ms"));
    }

    #[test]
    fn a_deadline_no_instant_can_hold_never_expires() {
        let pingpong =
            r#"{"system":"dmz","nranks":2,"workload":{"kind":"pingpong","bytes":1024,"reps":2}}"#;
        let far = pingpong.replacen('{', "{\"deadline_ms\":1e300,", 1);
        let input = format!("{far}\n{pingpong}\n");
        for config in [
            ServeConfig::default(),
            ServeConfig { default_deadline_ms: Some(1e300), ..ServeConfig::default() },
        ] {
            let server = server(config);
            let lines = run(&server, &input);
            assert_eq!(lines.len(), 2);
            assert!(lines.iter().all(|l| l.starts_with("{\"ok\":true")), "{lines:?}");
            assert_eq!(server.stats().shed_deadline, 0);
        }
    }

    #[test]
    fn artifact_requests_without_a_runner_are_typed_errors() {
        let server = server(ServeConfig::default());
        let lines = run(&server, "{\"artifact\":\"t1\"}\n");
        assert!(lines[0].contains("\"kind\":\"bad-request\""), "{}", lines[0]);
    }

    #[test]
    fn artifact_runner_is_consulted() {
        let server = server(ServeConfig::default()).with_artifact_runner(Box::new(|v| {
            format!(
                "{{\"ok\":true,\"echo\":\"{}\"}}",
                v.get("artifact").and_then(Value::as_str).unwrap_or("?")
            )
        }));
        let lines = run(&server, "{\"artifact\":\"t9\"}\n");
        assert_eq!(lines[0], "{\"ok\":true,\"echo\":\"t9\"}");
    }

    #[test]
    fn unterminated_final_line_is_still_served() {
        let server = server(ServeConfig::default());
        let lines = run(&server, BSP); // no trailing newline
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"ok\":true"));
    }

    #[test]
    fn summary_mentions_sheds() {
        let server = server(ServeConfig { max_inflight: 1, ..ServeConfig::default() });
        run(&server, &format!("{BSP}\n{BSP}\n"));
        let line = server.summary();
        assert!(line.starts_with("serve: connections 0, requests 2, responses 2"), "{line}");
        assert!(line.contains("overloaded 1"), "{line}");
    }

    #[test]
    fn closing_with_unread_bytes_sends_fin_not_reset() {
        // The server stops reading before the client's partial line is
        // consumed (e.g. shutdown seen before the connection's first
        // read): the client must still see a clean EOF, not ECONNRESET.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"{\"system\":").unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut queued = [0u8; 16];
        while server_side.peek(&mut queued).unwrap() < 10 {}
        close_without_reset(&server_side);
        drop(server_side);
        let mut tail = Vec::new();
        assert_eq!(client.read_to_end(&mut tail).unwrap(), 0, "{tail:?}");
    }
}
