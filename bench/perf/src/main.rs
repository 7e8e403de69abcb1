//! `perf` — corescope's performance ledger.
//!
//! ```text
//! perf --workload <suite|sweep|replay|serve|campaign> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One invocation runs one workload in its own process, prints every
//! metric with its unit, checks the outputs, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Untraced runs
//! report the end-to-end metrics; `--trace 1` runs the same workload with
//! a span around every call into a layer, adds a layer probe, writes the
//! spans as Chrome-trace JSON under `.perf/` and reports the per-layer
//! metrics. Any wrong output makes the exit code non-zero after the
//! metrics are printed. See `bench/perf/README.md`.

mod gates;
mod gen;
mod host;
mod lower;
mod probe;
mod report;
mod trace;
mod workloads;

use gates::{Checks, Gates};
use host::HostSpeed;
use report::{pct, Metric};
use std::path::{Path, PathBuf};
use trace::{NameTotals, Tracer};
use workloads::{Ctx, Run, Size};

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 8] =
    ["topo", "affinity", "smpi", "machine", "sched", "serve", "store", "harness"];

/// Largest share of a traced run's measured phase that spans may leave
/// uncovered.
const MAX_UNACCOUNTED: f64 = 0.10;

/// Where traces and per-run scratch directories go, relative to the
/// working directory.
const OUT_DIR: &str = ".perf";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let usage = "usage: perf --workload <suite|sweep|replay|serve|campaign> [--seed <n>] \
                 [--seconds <n>] [--trace <0|1>]";
    let mut out = Args { workload: String::new(), seed: 2006, seconds: 10, trace: false };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{usage}"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--help" | "-h" => return Err(usage.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{usage}")),
        }
    }
    if !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {}\n{usage}", workloads::NAMES.join(", ")));
    }
    Ok(out)
}

/// What one run reports.
struct Outcome {
    metrics: Vec<Metric>,
    details: Vec<Metric>,
    checks: Checks,
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", pct(&run.setup_s, 50.0), "s"),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MB"),
        Metric::new("ops_per_s", run.ops_per_s(), "1/s"),
        Metric::new("p50_ms", pct(&run.latencies_ms, 50.0), "ms"),
    ]
}

/// Seconds one span costs to record, measured on a scratch tracer.
fn span_cost_s() -> f64 {
    const N: u64 = 20_000;
    let tracer = Tracer::new(true);
    let started = std::time::Instant::now();
    for i in 0..N {
        tracer.span("bench.cost", i, 1, || ());
    }
    started.elapsed().as_secs_f64() / N as f64
}

fn per_layer(ctx: &Ctx, run: &Run, probe: &probe::Probe, spans: &[trace::Span]) -> Vec<Metric> {
    let names = trace::by_name(spans);
    let get = |name: &str| names.get(name).copied().unwrap_or_default();
    let own = trace::self_times(spans);
    let window1 = if run.window1.is_empty() { &probe.window1 } else { &run.window1 };
    let (overhead_ms, batch_ms) = probe::serve_split(window1);
    let cold_serial = get("sched.cold_batch_serial").seconds;
    let cold_parallel = get("sched.cold_batch_parallel").seconds;
    let s = &run.sched;
    let count = |name: &str, n: usize| Metric::new(name, n as f64, "count");
    let us = |name: &str, t: NameTotals| Metric::new(name, t.us_per_unit(), "us");
    let mut out = vec![
        us("topo.spec_us", get("topo.spec")),
        us("affinity.place_us", get("affinity.place")),
        Metric::new("smpi.lower_us", get("smpi.lower").us_per_call(), "us"),
        Metric::new("smpi.ops", get("smpi.lower").work as f64, "count"),
        Metric::new("machine.engine_us", get("machine.run").us_per_call(), "us"),
        Metric::new("machine.events", get("machine.run").work as f64, "count"),
        Metric::new("machine.events_per_s", get("machine.run").units_per_s(), "1/s"),
        Metric::new("machine.solver_intervals", get("machine.observe").work as f64, "count"),
        us("sched.digest_us", get("sched.digest")),
        us("sched.cache_get_mem_us", get("sched.cache_get_mem")),
        us("sched.cache_get_disk_us", get("sched.cache_get_disk")),
        us("sched.cache_put_disk_us", get("sched.cache_put_disk")),
        // Every warm batch holds each distinct scenario `WARM_COPIES` times,
        // and looks up only the distinct ones.
        Metric::new(
            "sched.dispatch_us_per_input",
            get("sched.warm_batch").us_per_unit()
                - get("sched.digest").us_per_unit()
                - get("sched.cache_get_mem").us_per_unit() / workloads::WARM_COPIES as f64,
            "us",
        ),
        Metric::new("sched.scaling_eff", cold_serial / (ctx.jobs as f64 * cold_parallel), "ratio"),
        count("sched.engine_runs", s.engine_runs),
        count("sched.hits_memory", s.hits_memory),
        count("sched.hits_disk", s.hits_disk),
        count("sched.deduped", s.deduped),
        count("sched.in_flight_waits", s.in_flight_waits),
        count("sched.errors", s.errors),
        Metric::new("serve.overhead_ms_p50", overhead_ms, "ms"),
        Metric::new("serve.batch_ms_p50", batch_ms, "ms"),
        us("serve.parse_us", get("serve.parse")),
        us("serve.render_us", get("serve.render")),
        count(
            "serve.shed",
            run.serve.shed_overloaded + run.serve.shed_quota + run.serve.shed_deadline,
        ),
        count("serve.bad_requests", run.serve.bad_requests),
        us("store.append_us", get("store.append")),
        Metric::new("store.flush_ms", get("store.flush").us_per_call() / 1e3, "ms"),
        Metric::new("store.scan_rows_per_s", get("store.scan").units_per_s(), "1/s"),
        count("store.segments", run.segments.unwrap_or(probe.segments)),
        Metric::new("harness.aggregate_rows_per_s", get("harness.aggregate").units_per_s(), "1/s"),
        Metric::new("harness.render_us", get("harness.render").us_per_call(), "us"),
    ];
    for layer in LAYERS {
        let seconds = own.get(layer).copied().unwrap_or(0.0);
        out.push(Metric::new(format!("{layer}.self_s"), seconds, "s"));
    }
    out
}

/// Runs one workload and computes what it reports.
fn measure(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let started = ctx.tracer.now();
    let mut run = workloads::run(workload, ctx)?;
    let mut details = std::mem::take(&mut run.details);
    details.push(Metric::new("latency_samples", run.latencies_ms.len() as f64, "count"));
    details.push(Metric::new("jobs", ctx.jobs as f64, "count"));
    if !ctx.tracer.is_on() {
        return Ok(Outcome { metrics: end_to_end(&run), details, checks: run.checks });
    }
    let probe = probe::run(ctx, &run.sample, &mut run.checks)?;
    let spans = ctx.tracer.spans();
    let mut metrics = per_layer(ctx, &run, &probe, &spans);
    let wall = (ctx.tracer.now() - started) as f64 * 1e-9;
    let (from, to) = run.window;
    let unaccounted = trace::unaccounted_share(&spans, from, to);
    run.checks.expect(unaccounted <= MAX_UNACCOUNTED, || {
        format!("spans leave {unaccounted:.3} of the measured phase uncovered")
    });
    metrics.extend([
        Metric::new("trace.unaccounted_share", unaccounted, "share"),
        Metric::new("trace.overhead_share", spans.len() as f64 * span_cost_s() / wall, "share"),
        Metric::new("trace.spans", spans.len() as f64, "count"),
    ]);
    let json = trace::chrome_json(&spans);
    match corescope_bench::validate_chrome_trace(&json) {
        Ok(()) => {
            let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{}.json", ctx.seed));
            std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("perf: trace written to {}", path.display());
        }
        Err(e) => run.checks.expect(false, || format!("exported trace is invalid: {e}")),
    }
    Ok(Outcome { metrics, details, checks: run.checks })
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let scratch =
        PathBuf::from(OUT_DIR).join(format!("run-{}-{}", args.workload, std::process::id()));
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let scratch = scratch.canonicalize().map_err(|e| e.to_string())?;
    // Artifacts that need a temporary directory (x9) stay inside the
    // working directory too. Set before any thread starts.
    std::env::set_var("TMPDIR", scratch.join("tmp"));
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        size: Size::for_seconds(args.seconds),
        tracer: Tracer::new(args.trace),
        host: HostSpeed::new(!args.trace),
        scratch,
        jobs,
        gates: Gates::load(),
    };
    let outcome = measure(&ctx, &args.workload);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let Outcome { metrics, details, checks } = outcome?;
    for m in details.iter().chain(&metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for note in &checks.notes {
        eprintln!("perf: FAILED: {note}");
    }
    let failed = checks.failed.min(checks.attempted);
    println!("{}", report::result_line(checks.attempted.max(1), failed, &metrics));
    Ok(failed == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_sched::json::{self, Value};

    /// Metric names `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = doc.get(key).and_then(Value::as_arr).expect("metric list");
        list.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string()).collect()
    }

    fn tiny_ctx(label: &str, trace: bool) -> Ctx {
        let scratch =
            Path::new(OUT_DIR).join(format!("test-{label}-{trace}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        Ctx {
            seed: 2006,
            seconds: 0,
            size: Size::tiny(),
            tracer: Tracer::new(trace),
            host: HostSpeed::new(!trace),
            scratch,
            jobs: 2,
            gates: Gates::load(),
        }
    }

    #[test]
    fn every_workload_passes_its_gates_and_reports_every_listed_metric() {
        assert_eq!(listed("workloads"), workloads::NAMES);
        for name in workloads::NAMES {
            for trace in [false, true] {
                let ctx = tiny_ctx(name, trace);
                let outcome = measure(&ctx, name).unwrap();
                let _ = std::fs::remove_dir_all(&ctx.scratch);
                assert_eq!(outcome.checks.failed, 0, "{name}: {:?}", outcome.checks.notes);
                assert!(outcome.checks.attempted > 0, "{name}");
                let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
                let want = listed(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(names, want, "{name} trace={trace}");
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn arguments_follow_the_benchmark_contract() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload sweep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sweep", 7, 10, true));
        assert_eq!(args("--workload serve").unwrap().seed, 2006);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload suite --trace 2").is_err());
        assert!(args("--workload suite --bogus").is_err());
    }
}
