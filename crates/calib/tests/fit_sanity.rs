//! End-to-end fit check: the x7 artifact's core claim, at test scale.
//! From a perturbed start (+25% DRAM latency, -25% HT bandwidth), a
//! 60-evaluation fit over the stream and latency families must recover
//! the shipped constants within 5%.

use corescope_calib::eval::Evaluator;
use corescope_calib::search::{fit, FitConfig};
use corescope_calib::targets::Family;
use corescope_machine::{Axis, CalibParams};
use corescope_sched::{Fidelity, Scheduler};

#[test]
fn two_axis_fit_recovers_shipped() {
    let s = Scheduler::new(4);
    let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Stream, Family::Latency]);
    let mut start = CalibParams::paper_2006();
    start.dram_latency *= 1.25;
    start.ht_bandwidth *= 0.75;
    let config = FitConfig::new(vec![Axis::DramLatency, Axis::HtBandwidth]).with_budget(60);
    let r = fit(&eval, start, &config).unwrap();
    assert!(r.converged, "best score {} after {} evals", r.best_score, r.evaluations);
    assert!(r.best_score < r.start_score);
    let rel_lat = (r.fitted.dram_latency - 70e-9).abs() / 70e-9;
    let rel_bw = (r.fitted.ht_bandwidth - 2e9).abs() / 2e9;
    assert!(rel_lat < 0.05, "dram_latency fitted {:.4e}", r.fitted.dram_latency);
    assert!(rel_bw < 0.05, "ht_bandwidth fitted {:.4e}", r.fitted.ht_bandwidth);
}
