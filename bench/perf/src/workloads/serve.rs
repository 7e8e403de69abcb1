//! `serve`: an in-process TCP server (default limits, jobs=2) driven for
//! the run length by two closed-loop connections over the same request
//! mix. The interactive one sends one line and waits for its reply; the
//! bulk one pipelines windows of 32 lines, the serve batch size. A change
//! that helps one way of using the framing and hurts the other shows up.
//!
//! Mix: 65% fresh cheap-to-moderate sweep scenarios, 25% repeats of
//! earlier ones, 5% artifact `t1` requests and 5% garbage lines. Each
//! client draws its lines on demand from its own part of one seeded
//! sweep, so its sequence of lines depends on the seed alone; a faster
//! server only takes a client further along it.

use super::{sample, setup, Counts, Ctx, Run, Timed};
use crate::gen::{self, Sweep, SweepShape, Universe};
use crate::host::HostSpeed;
use crate::report::{pct, Metric};
use crate::trace::Tracer;
use corescope_harness::serve_artifact_runner;
use corescope_sched::json::{self, Value};
use corescope_sched::{Scenario, Scheduler, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lines per bulk window: `ServeConfig::default().batch`.
const BULK_WINDOW: usize = 32;

/// The sweep cells the fresh requests come from: world sizes up to 4.
const MODERATE: SweepShape = SweepShape { passes: 1, max_ranks: 4, resilience: false };

/// Fresh lines a client keeps to draw its repeats from: its latest ones.
const REPEAT_POOL: usize = 1024;

/// What a reply to a line must be.
#[derive(Debug, Clone)]
enum Expect {
    /// `ok` echoing this digest.
    Scenario(String),
    /// `ok` naming artifact `t1`.
    Artifact,
    /// A typed `bad-request`.
    BadRequest,
}

#[derive(Debug, Clone)]
struct Line {
    text: String,
    expect: Expect,
}

/// One client's lines: the mix over the client's part of the sweep.
struct Script<'u> {
    sweep: Sweep<'u>,
    /// The rest of the current pass, shuffled.
    pending: Vec<Scenario>,
    /// The latest fresh lines.
    sent: VecDeque<Line>,
    rng: SmallRng,
    client: usize,
    lines: usize,
}

impl<'u> Script<'u> {
    fn new(universe: &'u Universe, seed: u64, client: usize) -> Self {
        Self {
            sweep: Sweep::new(universe, seed, MODERATE).part(client, 2),
            pending: Vec::new(),
            sent: VecDeque::with_capacity(REPEAT_POOL),
            rng: SmallRng::seed_from_u64(seed.wrapping_add(client as u64)),
            client,
            lines: 0,
        }
    }

    fn fresh(&mut self) -> Line {
        if self.pending.is_empty() {
            self.pending = self.sweep.next_pass();
            gen::shuffle(&mut self.rng, &mut self.pending);
        }
        let scenario = self.pending.pop().expect("every sweep pass has scenarios");
        let line =
            Line { text: scenario.to_json(), expect: Expect::Scenario(scenario.digest().hex()) };
        if self.sent.len() == REPEAT_POOL {
            self.sent.pop_front();
        }
        self.sent.push_back(line.clone());
        line
    }

    fn next_line(&mut self) -> Line {
        self.lines += 1;
        let roll = self.rng.gen_range(0..100);
        if roll < 65 || (roll < 90 && self.sent.is_empty()) {
            self.fresh()
        } else if roll < 90 {
            self.sent[self.rng.gen_range(0..self.sent.len())].clone()
        } else if roll < 95 {
            Line {
                text: "{\"artifact\":\"t1\",\"fidelity\":\"quick\"}".to_string(),
                expect: Expect::Artifact,
            }
        } else {
            Line {
                text: format!("!!! not json {} {} !!!", self.client, self.lines),
                expect: Expect::BadRequest,
            }
        }
    }
}

/// Checks one reply against its line; returns the echoed `batch_ms` of
/// a scenario reply.
fn check_reply(reply: &str, expect: &Expect) -> Result<Option<f64>, String> {
    let value = json::parse(reply).map_err(|e| format!("unparseable reply {reply:?}: {e}"))?;
    let ok = matches!(value.get("ok"), Some(Value::Bool(true)));
    let field = |key: &str| value.get(key).and_then(Value::as_str);
    match expect {
        Expect::Scenario(digest) if ok && field("digest") == Some(digest.as_str()) => {
            Ok(value.get("batch_ms").and_then(Value::as_f64))
        }
        Expect::Artifact if ok && field("artifact") == Some("t1") => Ok(None),
        Expect::BadRequest if !ok && field("kind") == Some("bad-request") => Ok(None),
        _ => Err(format!("reply {reply:.120} does not answer a {expect:?} line")),
    }
}

#[derive(Debug, Default)]
struct Client {
    /// Each window's round trip.
    rounds: Vec<Timed>,
    /// (latency, batch_ms) of window-1 scenario replies.
    window1: Vec<(f64, f64)>,
    lines: usize,
    replies: usize,
    violations: Vec<String>,
}

/// Drives one connection until `deadline`, `window` lines at a time.
fn client(
    tracer: &Tracer,
    addr: SocketAddr,
    mut script: Script<'_>,
    window: usize,
    deadline: Instant,
) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A lost reply fails the run instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut out = Client::default();
    let mut reply = String::new();
    while Instant::now() < deadline {
        let at = out.lines;
        let lines: Vec<Line> = (0..window).map(|_| script.next_line()).collect();
        let started = Instant::now();
        let replies = tracer.span("serve.request", at as u64, window as u64, || {
            let mut body = String::new();
            for line in &lines {
                body.push_str(&line.text);
                body.push('\n');
            }
            writer.write_all(body.as_bytes())?;
            writer.flush()?;
            let mut replies = Vec::with_capacity(window);
            for _ in 0..window {
                reply.clear();
                if reader.read_line(&mut reply)? == 0 {
                    break;
                }
                replies.push(reply.trim_end().to_string());
            }
            Ok::<_, std::io::Error>(replies)
        });
        let round = Timed::since(started);
        let replies = replies.map_err(|e| format!("line {at}: {e}"))?;
        out.rounds.push(round);
        out.lines += window;
        out.replies += replies.len();
        if replies.len() != window {
            out.violations.push(format!("line {at}: {} replies to {window} lines", replies.len()));
            break;
        }
        for (line, reply) in lines.iter().zip(&replies) {
            match check_reply(reply, &line.expect) {
                Ok(Some(batch_ms)) if window == 1 => {
                    out.window1.push((round.wall_s() * 1e3, batch_ms));
                }
                Ok(_) => {}
                Err(e) => out.violations.push(e),
            }
        }
    }
    writer.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
    reply.clear();
    if reader.read_line(&mut reply).map_err(|e| e.to_string())? != 0 {
        out.violations.push(format!("reply after the last line: {reply:?}"));
    }
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let ((universe, probe), setup_s) = setup(ctx, || {
        let universe = Universe::new()?;
        let probe = sample(&gen::sweep(&universe, ctx.seed, MODERATE).concat(), ctx.size.sample);
        Ok((universe, probe))
    })?;
    let mut run = Run { setup_s, sample: probe, ..Run::default() };

    let sched = Arc::new(Scheduler::new(ctx.jobs));
    let server = Server::new(Arc::clone(&sched), ServeConfig::default())
        .with_artifact_runner(serve_artifact_runner(Arc::clone(&sched)));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let [first, second] = [0, 1].map(|client| Script::new(&universe, ctx.seed, client));

    run.begin(ctx);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.size.serve_s);
    let (interactive, bulk, listened) = std::thread::scope(|scope| {
        let server = &server;
        let listen = scope.spawn(move || server.listen(listener));
        let tracer = &ctx.tracer;
        let interactive = scope.spawn(move || client(tracer, addr, first, 1, deadline));
        let bulk = scope.spawn(move || client(tracer, addr, second, BULK_WINDOW, deadline));
        let interactive = interactive.join().expect("interactive client panicked");
        let bulk = bulk.join().expect("bulk client panicked");
        server.request_shutdown();
        (interactive, bulk, listen.join().expect("listener panicked"))
    });
    listened.map_err(|e| format!("listener: {e}"))?;
    let (interactive, bulk) = (interactive?, bulk?);

    for (name, c) in [("interactive", &interactive), ("bulk", &bulk)] {
        run.checks.attempt(c.lines);
        run.checks
            .fail(c.violations.len(), || format!("serve {name}: {}", c.violations.join("; ")));
    }
    // Throughput: the bulk client's replies over the time it spent waiting
    // for them; latency: the interactive client's round trips. Both are
    // reported as measured: they follow the server's timers more than the
    // host's speed. Charged at the reference speed, the bulk rate moved
    // against the host's speed (777 to 900 replies/s over six runs on a
    // shared 2-core host, against 606 to 644 as measured).
    run.step("reply", bulk.replies as f64, bulk.rounds.iter().copied());
    run.latencies = interactive.rounds.iter().map(|&round| vec![round]).collect();
    run.end(ctx, &HostSpeed::new(false))?;
    run.window1 = interactive.window1;
    run.sched = Counts::of(&sched.stats());
    run.serve = server.stats();
    let bulk_ms: Vec<f64> = bulk.rounds.iter().map(|t| t.wall_s() * 1e3).collect();
    run.details.extend([
        Metric::new("serve.interactive_p95_ms", pct(&run.latencies_ms, 95.0), "ms"),
        Metric::new("serve.interactive_samples", run.latencies_ms.len() as f64, "count"),
        Metric::new("serve.bulk_replies", bulk.replies as f64, "count"),
        Metric::new("serve.bulk_window_ms_p50", pct(&bulk_ms, 50.0), "ms"),
    ]);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scripts_outlast_any_pass_and_repeat_only_as_the_mix_says() {
        let universe = Universe::new().unwrap();
        let pass = gen::sweep(&universe, 3, MODERATE)[0].len();
        let mut script = Script::new(&universe, 3, 1);
        let lines: Vec<Line> = (0..4 * pass).map(|_| script.next_line()).collect();
        let fresh: HashSet<&str> = lines
            .iter()
            .filter_map(|l| match &l.expect {
                Expect::Scenario(digest) => Some(digest.as_str()),
                _ => None,
            })
            .collect();
        let share = fresh.len() as f64 / lines.len() as f64;
        assert!((0.6..0.7).contains(&share), "fresh share {share}");
        let mut again = Script::new(&universe, 3, 1);
        assert!(lines.iter().all(|l| again.next_line().text == l.text), "same seed, same lines");
    }
}
