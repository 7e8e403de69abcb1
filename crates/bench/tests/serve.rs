//! End-to-end tests for the `corescope-serve` and `repro` binaries:
//! NDJSON protocol, cache warm-up across processes, concurrent TCP
//! clients, SIGTERM drain, stdin-mode idle replies, cross-process cache
//! single-flight, and the determinism guarantee that `--jobs N` never
//! changes a byte of output.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Output, Stdio};

fn serve(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_corescope-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn corescope-serve");
    child.stdin.take().expect("piped stdin").write_all(input.as_bytes()).expect("write requests");
    child.wait_with_output().expect("collect corescope-serve output")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

/// Spawns `corescope-serve --listen 127.0.0.1:0`, parses the bound port
/// from the first stderr line, and hands back the child plus the stderr
/// reader (for the post-drain summaries) and the address to dial.
fn spawn_listener(extra: &[&str]) -> (Child, BufReader<ChildStderr>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_corescope-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn corescope-serve --listen");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read listen banner");
    let addr = banner
        .trim()
        .rsplit("listening on ")
        .next()
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();
    (child, stderr, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill -TERM");
    assert!(status.success(), "kill -TERM failed");
}

/// Pulls the `engine runs N` counter out of a `sched:` summary.
fn engine_runs(stderr: &str) -> usize {
    stderr
        .split("engine runs ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no 'engine runs' in stderr: {stderr}"))
}

const BSP: &str = r#"{"system":"dmz","nranks":2,"workload":{"kind":"bsp","steps":4,"flops_per_step":1e6,"bytes_per_step":1e6,"sync_bytes":8}}"#;

#[test]
fn serve_answers_scenarios_artifacts_and_errors_in_order() {
    let input = format!("{BSP}\n{BSP}\n{{\"artifact\":\"t1\"}}\n{{\"what\":1}}\n");
    let out = serve(&["--jobs", "2"], &input);
    assert!(out.status.success());
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "one response per request: {lines:?}");

    assert!(lines[0].starts_with("{\"ok\":true,\"digest\":\""));
    assert!(lines[0].contains("\"cache\":\"miss\""));
    assert!(lines[0].contains("\"makespan\":"));
    // The identical second request is deduplicated against the first,
    // not recomputed — and carries the same result bytes.
    assert!(lines[1].contains("\"cache\":\"in-flight\""));
    let result = |l: &str| l.split("\"result\":").nth(1).map(String::from);
    assert_eq!(result(lines[0]), result(lines[1]));

    assert!(lines[2].contains("\"artifact\":\"t1\""));
    assert!(lines[2].contains("Total cores"), "tables travel as CSV: {}", lines[2]);
    assert!(lines[3].starts_with("{\"ok\":false,\"error\":"));

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engine runs 1"), "summary must land on stderr: {stderr}");
}

#[test]
fn serve_and_repro_share_the_disk_cache() {
    let dir = std::env::temp_dir().join("corescope-serve-cache-test");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();

    // A serve process computes the scenario once, cold...
    let first = serve(&["--cache", cache], &format!("{BSP}\n"));
    let first_line = String::from_utf8(first.stdout).unwrap();
    assert!(first_line.contains("\"cache\":\"miss\""));

    // ...and a *fresh process* replays it from disk, bit-identical.
    let second = serve(&["--cache", cache], &format!("{BSP}\n"));
    let second_line = String::from_utf8(second.stdout).unwrap();
    assert!(second_line.contains("\"cache\":\"disk\""), "expected a disk hit: {second_line}");
    let result = |l: &str| l.split("\"result\":").nth(1).map(String::from);
    assert_eq!(result(&first_line), result(&second_line));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listen_mode_serves_concurrent_tcp_clients() {
    let (child, mut stderr, addr) = spawn_listener(&["--jobs", "2"]);
    let workers: Vec<_> = (0..3)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone stream");
                // Distinct steps per client so every request is a genuine
                // engine run, not a dedup of a sibling's.
                for i in 0..2 {
                    let line =
                        BSP.replace("\"steps\":4", &format!("\"steps\":{}", 5 + client * 2 + i));
                    writeln!(writer, "{line}").expect("send request");
                }
                writer.flush().expect("flush requests");
                stream.shutdown(std::net::Shutdown::Write).expect("half-close");
                let lines: Vec<String> =
                    BufReader::new(stream).lines().map(|l| l.expect("read response")).collect();
                assert_eq!(lines.len(), 2, "one response per request: {lines:?}");
                for line in &lines {
                    assert!(line.starts_with("{\"ok\":true,\"digest\":\""), "bad response: {line}");
                    assert!(line.ends_with('}'), "torn response line: {line}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    sigterm(&child);
    let status = child.wait_with_output().expect("wait for drain").status;
    assert!(status.success(), "SIGTERM drain must exit cleanly: {status:?}");
    let mut tail = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut tail).expect("read summaries");
    assert!(tail.contains("serve: connections 3"), "serve summary: {tail}");
    assert!(tail.contains("responses 6"), "all six responses counted: {tail}");
    assert_eq!(engine_runs(&tail), 6, "six distinct scenarios, six runs: {tail}");
}

#[test]
fn sigterm_drains_an_inflight_request_before_exiting() {
    let (child, mut stderr, addr) = spawn_listener(&[]);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    writeln!(writer, "{BSP}").expect("send request");
    writer.flush().expect("flush request");
    // Give the server time to *accept* the request (reads are immediate;
    // the connection stays open so only admitted work is outstanding),
    // then ask for the drain while it is still in flight.
    std::thread::sleep(std::time::Duration::from_millis(60));
    sigterm(&child);
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read drained response");
    assert!(response.starts_with("{\"ok\":true,\"digest\":\""), "drained response: {response}");
    assert!(response.trim_end().ends_with('}'), "torn line during drain: {response}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("read to close");
    assert_eq!(rest, "", "no stray bytes after the drained response");
    let status = child.wait_with_output().expect("wait for drain").status;
    assert!(status.success(), "drain must exit cleanly: {status:?}");
    let mut tail = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut tail).expect("read summaries");
    assert!(tail.contains("serve:"), "serve summary printed: {tail}");
    assert!(tail.contains("sched:"), "sched summary printed: {tail}");
}

#[test]
fn stdin_mode_answers_a_partial_batch_while_stdin_stays_open() {
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_corescope-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn corescope-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (tx, replies) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            let Ok(line) = line else { return };
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    writeln!(stdin, "{BSP}").expect("send request");
    stdin.flush().expect("flush request");
    // One line of a 32-line batch, and stdin stays open: the idle read
    // timeout, not EOF or a full batch, must release the reply.
    let reply = replies.recv_timeout(Duration::from_secs(2)).expect("reply while stdin is open");
    assert!(reply.starts_with("{\"ok\":true,\"digest\":\""), "reply: {reply}");
    // SIGTERM drains without waiting for more input either.
    sigterm(&child);
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll corescope-serve") {
            break status;
        }
        assert!(Instant::now() < deadline, "SIGTERM must end stdin mode with stdin open");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drain must exit cleanly: {status:?}");
    drop(stdin);
    reader.join().expect("stdout reader");
}

#[test]
fn two_serve_processes_share_cache_without_double_compute() {
    let dir = std::env::temp_dir().join("corescope-serve-two-process-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();
    // Slow enough (~1.5 s debug) that the two processes genuinely race
    // for the cache entry; the lock protocol must arbitrate so exactly
    // one computes and the other replays the published bytes.
    let slow = BSP.replace("\"steps\":4", "\"steps\":60000");
    let spawn = || {
        let mut child = Command::new(env!("CARGO_BIN_EXE_corescope-serve"))
            .args(["--cache", cache])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn corescope-serve");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(format!("{slow}\n").as_bytes())
            .expect("write request");
        child
    };
    let first = spawn();
    let second = spawn();
    let first = first.wait_with_output().expect("collect first");
    let second = second.wait_with_output().expect("collect second");
    assert!(first.status.success() && second.status.success());

    let result = |out: &[u8]| {
        let line = String::from_utf8_lossy(out).to_string();
        assert!(line.starts_with("{\"ok\":true"), "both must succeed: {line}");
        line.split("\"result\":").nth(1).map(String::from).expect("result payload")
    };
    assert_eq!(result(&first.stdout), result(&second.stdout), "shared entries must be identical");

    let runs = engine_runs(&String::from_utf8_lossy(&first.stderr))
        + engine_runs(&String::from_utf8_lossy(&second.stderr));
    assert_eq!(runs, 1, "cross-process single-flight: exactly one compute between the two");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_jobs_and_cache_keep_every_output_byte() {
    let dir = std::env::temp_dir().join("corescope-repro-cache-test");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();

    let serial = repro(&["--artifact", "x5", "--artifact", "f2", "--quick", "--jobs", "1"]);
    assert!(serial.status.success());
    let cold = repro(&[
        "--artifact",
        "x5",
        "--artifact",
        "f2",
        "--quick",
        "--jobs",
        "8",
        "--cache",
        cache,
    ]);
    let warm = repro(&[
        "--artifact",
        "x5",
        "--artifact",
        "f2",
        "--quick",
        "--jobs",
        "8",
        "--cache",
        cache,
    ]);
    assert_eq!(serial.stdout, cold.stdout, "--jobs 8 changed table bytes");
    assert_eq!(serial.stdout, warm.stdout, "cache replay changed table bytes");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("engine runs 0"),
        "warm pass must be cache-hit-dominated: {warm_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_rejects_unknown_artifacts_with_a_catalogue_hint() {
    let out = repro(&["--artifact", "zz9"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact 'zz9'"));
    assert!(stderr.contains("--list"), "error should point at the catalogue: {stderr}");
}

#[test]
fn repro_list_prints_the_catalogue() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["t1", "f10", "x5"] {
        assert!(stdout.lines().any(|l| l.trim().starts_with(id)), "missing {id}:\n{stdout}");
    }
}
