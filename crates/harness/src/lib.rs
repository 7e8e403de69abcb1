//! # corescope-harness
//!
//! The experiment harness: one entry point per table and figure of the
//! paper, producing [`report::Table`]s whose rows/series mirror what the
//! paper reports.
//!
//! ```
//! use corescope_harness::{Artifact, Fidelity};
//!
//! # fn main() -> Result<(), corescope_machine::Error> {
//! // Regenerate Table 4 (NAS multi-core speedup) at reduced fidelity.
//! let tables = Artifact::T4.run(Fidelity::Quick)?;
//! assert!(!tables.is_empty());
//! println!("{}", tables[0]);
//! # Ok(())
//! # }
//! ```

pub mod aggregate;
pub mod artifacts;
pub mod context;
pub mod observe;
pub mod report;
pub mod resilience;
pub mod runtime;

pub use artifacts::{Artifact, UnknownArtifact};
pub use corescope_sched::Fidelity;
pub use observe::{chrome_trace_json, representative_trace, utilization_csv, TraceBundle};
pub use report::{Cell, RowShapeError, Table};
pub use runtime::RuntimeOption;

use corescope_sched::serve::{error_line, ArtifactRunner};
use corescope_sched::{json, Scheduler};
use std::sync::Arc;

/// Builds the artifact handler for [`corescope_sched::serve::Server`]:
/// decodes `{"artifact":"t2","fidelity":"quick"}` requests, regenerates
/// the tables through `sched` (so artifact sweeps share the service's
/// cache and in-flight dedup), and renders the response line exactly as
/// the original single-client `corescope-serve` did.
///
/// Lives here rather than in `corescope-sched` because the serve layer
/// sits below the artifact catalogue and cannot name [`Artifact`].
pub fn serve_artifact_runner(sched: Arc<Scheduler>) -> ArtifactRunner {
    Box::new(move |value| {
        let id = match value.get("artifact").and_then(json::Value::as_str) {
            Some(id) => id,
            None => {
                return error_line("bad-request", "'artifact' must be a string id such as \"t2\"")
            }
        };
        let artifact = match Artifact::from_id(id) {
            Ok(artifact) => artifact,
            Err(e) => return error_line("bad-request", &e.to_string()),
        };
        let fidelity = match value.get("fidelity").and_then(json::Value::as_str) {
            None => Fidelity::Quick,
            Some(key) => match Fidelity::parse(key) {
                Some(fidelity) => fidelity,
                None => {
                    return error_line(
                        "bad-request",
                        &format!("unknown fidelity '{key}' (full or quick)"),
                    )
                }
            },
        };
        let started = std::time::Instant::now();
        match artifact.run_with(fidelity, &sched) {
            Err(e) => error_line("engine", &e.to_string()),
            Ok(tables) => {
                let csv: Vec<String> =
                    tables.iter().map(|t| format!("\"{}\"", json::escape(&t.to_csv()))).collect();
                format!(
                    "{{\"ok\":true,\"artifact\":\"{}\",\"latency_ms\":{},\"tables\":[{}]}}",
                    artifact.id(),
                    json::num(started.elapsed().as_secs_f64() * 1e3),
                    csv.join(",")
                )
            }
        }
    })
}
