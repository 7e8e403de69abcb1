//! Chaos rig for the NDJSON service: every injected failure — garbage
//! frames, oversized lines, mid-request disconnects, slow-loris partial
//! lines, deadline storms, admission overload, fault-plan scenarios that
//! kill ranks mid-run — must surface as a typed response or a clean
//! connection close, never a hang. Every test body runs under a watchdog
//! thread; a wedged server fails the test instead of wedging the suite.

use corescope_sched::{Scenario, Scheduler, ServeConfig, Server, System, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Runs `body` on its own thread and panics if it does not finish within
/// `secs` — the no-hang guarantee, enforced mechanically. A body that
/// panics re-raises its own panic here rather than reading as a hang.
fn watchdog<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body either sends its value or panics"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: test body still running after {secs}s — service hung")
        }
    }
}

fn bsp(steps: usize) -> Scenario {
    Scenario::new(
        System::Dmz,
        2,
        Workload::Bsp { steps, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
    )
}

/// A served TCP fixture: server + listener thread, torn down by
/// requesting shutdown and joining.
struct Rig {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    listen: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Rig {
    fn start(config: ServeConfig, jobs: usize) -> Rig {
        Rig::start_with_sched(config, Arc::new(Scheduler::new(jobs)))
    }

    fn start_with_sched(config: ServeConfig, sched: Arc<Scheduler>) -> Rig {
        let server = Arc::new(Server::new(sched, config));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let listen = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.listen(listener))
        };
        Rig { server, addr, listen: Some(listen) }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(self.addr).expect("connect to rig")
    }

    /// Sends `input`, half-closes, and returns all response lines.
    fn roundtrip(&self, input: &str) -> Vec<String> {
        let stream = self.connect();
        let mut writer = stream.try_clone().expect("clone stream");
        writer.write_all(input.as_bytes()).expect("write request");
        writer.flush().expect("flush");
        stream.shutdown(Shutdown::Write).expect("half-close");
        BufReader::new(stream).lines().map(|l| l.expect("read response")).collect()
    }

    /// Graceful shutdown; returns once the listener has fully joined.
    fn stop(mut self) {
        self.server.request_shutdown();
        if let Some(listen) = self.listen.take() {
            listen.join().expect("listener thread").expect("listener io");
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(listen) = self.listen.take() {
            let _ = listen.join();
        }
    }
}

#[test]
fn garbage_frames_get_typed_responses_and_the_connection_survives() {
    watchdog(30, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        let mut input = String::new();
        input.push_str("}{ not json\n");
        input.push_str("[1,2,3\n");
        input.push_str(&format!("{}\n", bsp(2).to_json()));
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"bad-request\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"bad-request\""), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"ok\":true"), "{}", lines[2]);
        // A healthy cache never trips the degradation warning.
        assert_eq!(rig.server.scheduler().cache_stats().unwritable, 0);
        assert!(!rig.server.summary().contains("cache unwritable"), "{}", rig.server.summary());
        rig.stop();
    });
}

#[test]
fn unwritable_cache_is_a_counted_warning_not_a_failure() {
    watchdog(30, || {
        // A disk cache whose tag directory is blocked by a plain file:
        // every entry write fails the way a read-only mount would, with
        // no permission-bit games (works as root too).
        let root = std::env::temp_dir()
            .join(format!("corescope-serve-unwritable-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(corescope_sched::ENGINE_TAG), b"i am a file").unwrap();
        let sched =
            Arc::new(Scheduler::with_cache(1, corescope_sched::ResultCache::on_disk(&root)));
        let rig = Rig::start_with_sched(ServeConfig::default(), sched);
        // Requests still succeed: the cache is an accelerator, never a
        // correctness dependency.
        let lines = rig.roundtrip(&format!("{}\n{}\n", bsp(2).to_json(), bsp(3).to_json()));
        assert_eq!(lines.len(), 2, "{lines:?}");
        for line in &lines {
            assert!(line.starts_with("{\"ok\":true"), "{line}");
        }
        // …but the failed entry writes are counted and surfaced in the
        // drain summary as a typed, greppable warning.
        let stats = rig.server.scheduler().cache_stats();
        assert_eq!(stats.unwritable, 2, "one failed write per engine run: {stats:?}");
        let summary = rig.server.summary();
        assert!(summary.contains("cache unwritable 2 (degraded)"), "{summary}");
        rig.stop();
        let _ = std::fs::remove_dir_all(&root);
    });
}

#[test]
fn invalid_utf8_over_tcp_is_survivable() {
    watchdog(30, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        let stream = rig.connect();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"\xff\xfe\x80\x80 binary trash\n").unwrap();
        writer.write_all(bsp(2).to_json().as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.expect("line")).collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"bad-request\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "{}", lines[1]);
        rig.stop();
    });
}

#[test]
fn oversized_line_is_shed_typed_not_buffered() {
    watchdog(30, || {
        let config = ServeConfig { max_line_bytes: 1024, ..ServeConfig::default() };
        let rig = Rig::start(config, 1);
        let flood = "z".repeat(1 << 20); // 1 MiB against a 1 KiB limit
        let lines = rig.roundtrip(&format!("{flood}\n{}\n", bsp(2).to_json()));
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"too-large\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "{}", lines[1]);
        rig.stop();
    });
}

#[test]
fn mid_request_disconnect_leaves_the_server_serving() {
    watchdog(30, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        {
            // A client that sends half a request and slams the door.
            let mut stream = rig.connect();
            stream.write_all(b"{\"system\":\"dmz\",\"nran").unwrap();
            stream.flush().unwrap();
        } // dropped: full close with data in flight
          // The next client is unaffected.
        let lines = rig.roundtrip(&format!("{}\n", bsp(2).to_json()));
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":true"), "{}", lines[0]);
        rig.stop();
    });
}

#[test]
fn slow_loris_partial_line_cannot_block_drain() {
    watchdog(30, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        // Holds a connection open with an eternally unfinished line.
        let mut loris = rig.connect();
        loris.write_all(b"{\"system\":").unwrap();
        loris.flush().unwrap();
        // A well-behaved client still gets served…
        let lines = rig.roundtrip(&format!("{}\n", bsp(2).to_json()));
        assert!(lines[0].starts_with("{\"ok\":true"));
        // …and shutdown completes despite the loris (watchdog-bounded):
        // its connection closes without a response line.
        rig.stop();
        let mut tail = String::new();
        let n = BufReader::new(&mut loris).read_line(&mut tail).expect("loris close");
        assert_eq!(n, 0, "loris got an unexpected response: {tail:?}");
    });
}

#[test]
fn deadline_storm_sheds_typed_and_in_order() {
    watchdog(60, || {
        // jobs=1 makes dispatch strictly serial: the slow head-of-line
        // scenario runs first, so every 1ms-deadline request behind it
        // has expired by its own dispatch — a deterministic storm.
        let rig = Rig::start(ServeConfig::default(), 1);
        let slow = bsp(20_000).to_json();
        let mut input = format!("{slow}\n");
        let mut storm: Vec<String> = Vec::new();
        for steps in 2..10 {
            let line = bsp(steps).to_json().replacen('{', "{\"deadline_ms\":1,", 1);
            storm.push(line.clone());
            input.push_str(&line);
            input.push('\n');
        }
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 1 + storm.len(), "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":true"), "slow head must finish: {}", lines[0]);
        for line in &lines[1..] {
            assert!(line.contains("\"kind\":\"deadline\""), "{line}");
        }
        assert_eq!(rig.server.stats().shed_deadline, storm.len());
        rig.stop();
    });
}

#[test]
fn overload_burst_is_rejected_with_retry_hints() {
    watchdog(60, || {
        let config = ServeConfig { max_inflight: 2, ..ServeConfig::default() };
        let rig = Rig::start(config, 1);
        let mut input = String::new();
        for steps in 1..=6 {
            input.push_str(&bsp(steps).to_json());
            input.push('\n');
        }
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 6, "{lines:?}");
        let ok = lines.iter().filter(|l| l.starts_with("{\"ok\":true")).count();
        let shed: Vec<_> = lines.iter().filter(|l| l.contains("\"kind\":\"overloaded\"")).collect();
        assert_eq!(ok, 2, "admission cap of 2: {lines:?}");
        assert_eq!(shed.len(), 4, "{lines:?}");
        for line in shed {
            assert!(line.contains("\"retry_after_ms\":"), "{line}");
        }
        // Permits released with the chunk: the service recovers.
        let after = rig.roundtrip(&format!("{}\n", bsp(9).to_json()));
        assert!(after[0].starts_with("{\"ok\":true"), "{after:?}");
        rig.stop();
    });
}

#[test]
fn per_peer_quota_limits_a_greedy_client() {
    watchdog(60, || {
        let config = ServeConfig { quota: 2, ..ServeConfig::default() };
        let rig = Rig::start(config, 1);
        let mut input = String::new();
        for steps in 1..=4 {
            input.push_str(&bsp(steps).to_json());
            input.push('\n');
        }
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(lines.iter().filter(|l| l.contains("\"kind\":\"quota\"")).count(), 2);
        assert_eq!(rig.server.stats().shed_quota, 2);
        rig.stop();
    });
}

#[test]
fn fault_plan_scenarios_surface_as_typed_results_or_errors() {
    use corescope_machine::faults::FaultPlan;
    use corescope_machine::ids::RankId;
    use corescope_machine::recovery::CheckpointPolicy;

    watchdog(60, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        // A rank-kill with no recovery policy: the engine reports a
        // failure, which must come back as a typed engine error.
        let doomed = bsp(4).with_faults(FaultPlan::new().rank_kill(0.001, RankId::new(0)));
        // The same fault with checkpointing: survives, recoveries > 0.
        let recovered = doomed.clone().with_recovery(CheckpointPolicy::new(0.01, 1.0e6));
        let input = format!("{}\n{}\n", doomed.to_json(), recovered.to_json());
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":false,\"error\":"), "{}", lines[0]);
        assert!(lines[0].contains("\"kind\":\"engine\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ok\":true"), "{}", lines[1]);
        assert!(lines[1].contains("\"recoveries\":"), "{}", lines[1]);
        rig.stop();
    });
}

#[test]
fn shutdown_drains_inflight_responses_without_torn_lines() {
    watchdog(60, || {
        let rig = Rig::start(ServeConfig::default(), 1);
        let stream = rig.connect();
        let mut writer = stream.try_clone().unwrap();
        // A chunk that takes real time, so shutdown lands mid-service.
        for steps in [5_000usize, 6_000, 7_000] {
            writeln!(writer, "{}", bsp(steps).to_json()).unwrap();
        }
        writer.flush().unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(120)); // let the chunk be admitted
        rig.server.request_shutdown();
        let lines: Vec<String> =
            BufReader::new(stream).lines().map(|l| l.expect("drained line")).collect();
        assert_eq!(lines.len(), 3, "in-flight chunk must be answered: {lines:?}");
        for line in &lines {
            assert!(line.starts_with("{\"ok\":true"), "{line}");
            corescope_sched::json::parse(line).expect("every drained line is whole JSON");
        }
        rig.stop();
    });
}

#[test]
fn excess_clients_get_one_typed_line_and_a_close() {
    watchdog(60, || {
        let config = ServeConfig { max_clients: 1, ..ServeConfig::default() };
        let rig = Rig::start(config, 1);
        // Occupy the only slot with an idle connection.
        let _holder = rig.connect();
        std::thread::sleep(Duration::from_millis(100)); // let accept() run
        let rejected = rig.connect();
        let mut lines = BufReader::new(rejected).lines();
        let line = lines.next().expect("one rejection line").expect("readable");
        assert!(line.contains("\"kind\":\"overloaded\""), "{line}");
        assert!(lines.next().is_none(), "connection must be closed after the rejection");
        rig.stop();
    });
}

#[test]
fn a_deadline_beyond_any_instant_is_served_and_frees_its_client_slot() {
    watchdog(60, || {
        // One client slot: a connection thread that unwound before
        // releasing it would turn every later client away.
        let config = ServeConfig { max_clients: 1, ..ServeConfig::default() };
        let rig = Rig::start(config, 1);
        let pingpong =
            Scenario::new(System::Dmz, 2, Workload::PingPong { bytes: 1024.0, reps: 2 }).to_json();
        let far = pingpong.replacen('{', "{\"deadline_ms\":1e300,", 1);
        let input = format!("{far}\n{pingpong}\n");
        let lines = rig.roundtrip(&input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines.iter().all(|l| l.starts_with("{\"ok\":true")), "{lines:?}");
        // The slot is released just after the reply's close; give the
        // connection thread a moment, then a second client is served.
        let mut again = Vec::new();
        for _ in 0..50 {
            again = rig.roundtrip(&input);
            if again.iter().all(|l| l.starts_with("{\"ok\":true")) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(again.len(), 2, "the client slot leaked: {again:?}");
        assert!(again.iter().all(|l| l.starts_with("{\"ok\":true")), "{again:?}");
        rig.stop();
    });
}
