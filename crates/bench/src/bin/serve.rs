//! `corescope-serve` — overload-safe batch simulation service over NDJSON.
//!
//! ```text
//! corescope-serve                       # serve requests from stdin
//! corescope-serve --jobs 8              # fan each batch out over 8 workers
//! corescope-serve --cache results/.cache   # persistent, cross-process-safe cache
//! corescope-serve --listen 127.0.0.1:7777  # serve concurrent TCP clients
//! corescope-serve --batch 16            # bounded queue: ≤16 requests held per client
//! corescope-serve --max-inflight 256    # global admission bound
//! corescope-serve --quota 32            # per-peer in-flight cap
//! corescope-serve --default-deadline 5000  # shed work older than 5s
//! ```
//!
//! One request per line, one response line per request, in input order.
//! Two request shapes:
//!
//! - a scenario object (the format `Scenario::to_json` emits), e.g.
//!   `{"system":"dmz","nranks":2,"workload":{"kind":"bsp",...}}` — run
//!   through the scheduler, answered with the engine result, the cache
//!   tier that satisfied it and the wall-clock of the batch it ran in.
//!   An optional `"deadline_ms"` field sheds the request with a typed
//!   `"kind":"deadline"` response if it cannot be dispatched in time;
//! - an artifact request `{"artifact":"t2","fidelity":"quick"}` — the
//!   harness regenerates the tables (scenario sweeps inside go through
//!   the same scheduler/cache) and the response carries them as CSV.
//!
//! Overload never queues unboundedly: past `--max-inflight` (globally)
//! or `--quota` (per peer) a request is answered immediately with
//! `{"ok":false,"kind":"overloaded"|"quota","retry_after_ms":…}`.
//! Malformed lines get `"kind":"bad-request"`, lines past
//! `--max-line-bytes` get `"kind":"too-large"`; the connection survives
//! all of them. SIGTERM/SIGINT trigger a graceful drain: stop accepting,
//! finish or deadline-out in-flight work, flush every connection, then
//! print the `serve:` and `sched:` summaries on stderr. The actual
//! service lives in `corescope_sched::serve`; this binary only parses
//! flags and wires signals.

use corescope_harness::serve_artifact_runner;
use corescope_sched::{ResultCache, Scheduler, ServeConfig, Server};
use std::io::{BufReader, ErrorKind, Read};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

struct Options {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    listen: Option<String>,
    config: ServeConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut options =
        Options { jobs: 1, cache_dir: None, listen: None, config: ServeConfig::default() };
    let mut args = std::env::args().skip(1);
    fn count(flag: &str, value: Option<String>) -> Result<usize, String> {
        value
            .ok_or(format!("{flag} needs a count"))?
            .parse::<usize>()
            .map_err(|e| format!("{flag}: {e}"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => options.jobs = count("--jobs", args.next())?.max(1),
            "--batch" | "-b" => options.config.batch = count("--batch", args.next())?.max(1),
            "--max-inflight" => {
                options.config.max_inflight = count("--max-inflight", args.next())?.max(1);
            }
            "--max-clients" => {
                options.config.max_clients = count("--max-clients", args.next())?.max(1);
            }
            "--quota" => options.config.quota = count("--quota", args.next())?.max(1),
            "--max-line-bytes" => {
                options.config.max_line_bytes = count("--max-line-bytes", args.next())?.max(64);
            }
            "--default-deadline" => {
                let ms = args
                    .next()
                    .ok_or("--default-deadline needs milliseconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--default-deadline: {e}"))?;
                if !ms.is_finite() || ms < 0.0 {
                    return Err("--default-deadline must be a non-negative number".to_string());
                }
                options.config.default_deadline_ms = Some(ms);
            }
            "--cache" => {
                let dir = args.next().ok_or("--cache needs a directory")?;
                options.cache_dir = Some(PathBuf::from(dir));
            }
            "--listen" => {
                options.listen = Some(args.next().ok_or("--listen needs an address (host:port)")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: corescope-serve [--jobs <n>] [--batch <n>] [--cache <dir>] \
                     [--listen <host:port>] [--max-inflight <n>] [--max-clients <n>] \
                     [--quota <n>] [--default-deadline <ms>] [--max-line-bytes <n>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(options)
}

/// Minimal SIGINT/SIGTERM hook: sets the server's shutdown flag so the
/// accept loop drains instead of dying mid-response. No signal crate is
/// vendored, so this declares `signal(2)` directly — the handler only
/// touches an atomic and re-arms the default disposition (both
/// async-signal-safe), so a second signal force-exits a stuck drain.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
        unsafe { signal(signum, SIG_DFL) };
    }

    pub fn install(flag: Arc<AtomicBool>) {
        let _ = FLAG.set(flag);
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

/// Stdin with the TCP path's read timeout. A thread reads stdin into a
/// bounded channel and `read` waits for the next piece at most
/// [`StdinPipe::IDLE`], reporting `TimedOut` when none comes. The server
/// then answers a partial batch while the writer keeps stdin open, and
/// notices SIGTERM without waiting for input, exactly as on a socket.
struct StdinPipe {
    pieces: Receiver<std::io::Result<Vec<u8>>>,
    piece: Vec<u8>,
    at: usize,
}

impl StdinPipe {
    /// The TCP connections' read timeout.
    const IDLE: Duration = Duration::from_millis(100);
    /// Pieces read ahead of the server, so a fast writer is held back
    /// after `DEPTH` reads of at most 8 KiB.
    const DEPTH: usize = 16;

    fn spawn() -> Self {
        let (tx, pieces) = mpsc::sync_channel(Self::DEPTH);
        // Detached, not joined: after a SIGTERM the reader may sit in a
        // read only EOF ends, and the process exits without it.
        std::thread::spawn(move || {
            let mut stdin = std::io::stdin().lock();
            let mut buf = vec![0u8; 8 * 1024];
            loop {
                let piece = match stdin.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => Ok(buf[..n].to_vec()),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => Err(e),
                };
                let failed = piece.is_err();
                if tx.send(piece).is_err() || failed {
                    return;
                }
            }
        });
        Self { pieces, piece: Vec::new(), at: 0 }
    }
}

impl Read for StdinPipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at == self.piece.len() {
            self.piece = match self.pieces.recv_timeout(Self::IDLE) {
                Ok(piece) => piece?,
                Err(RecvTimeoutError::Timeout) => return Err(ErrorKind::TimedOut.into()),
                Err(RecvTimeoutError::Disconnected) => return Ok(0),
            };
            self.at = 0;
        }
        let n = buf.len().min(self.piece.len() - self.at);
        buf[..n].copy_from_slice(&self.piece[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install(_flag: Arc<AtomicBool>) {}
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("corescope-serve: {e}");
            std::process::exit(2);
        }
    };
    // Cap the fan-out at the cores we have; oversubscription only adds
    // context-switch overhead to CPU-bound simulation.
    let cores = std::thread::available_parallelism().map_or(options.jobs, |n| n.get());
    let jobs = options.jobs.min(cores.max(1));
    let sched = match &options.cache_dir {
        Some(dir) => match ResultCache::try_on_disk(dir) {
            Ok(cache) => Scheduler::with_cache(jobs, cache),
            Err(e) => {
                eprintln!("corescope-serve: {e}");
                std::process::exit(2);
            }
        },
        None => Scheduler::new(jobs),
    };
    let sched = Arc::new(sched);
    let server = Server::new(Arc::clone(&sched), options.config)
        .with_artifact_runner(serve_artifact_runner(Arc::clone(&sched)));
    signals::install(server.shutdown_flag());

    let outcome = match &options.listen {
        None => {
            let mut stdout = std::io::stdout().lock();
            server.serve_io(BufReader::new(StdinPipe::spawn()), &mut stdout, "stdin")
        }
        Some(addr) => match std::net::TcpListener::bind(addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(local) => eprintln!("corescope-serve: listening on {local}"),
                    Err(_) => eprintln!("corescope-serve: listening on {addr}"),
                }
                server.listen(listener)
            }
            Err(e) => Err(e),
        },
    };
    eprintln!("{}", server.summary());
    eprintln!("{}", sched.summary());
    if let Err(e) = outcome {
        eprintln!("corescope-serve: {e}");
        std::process::exit(1);
    }
}
