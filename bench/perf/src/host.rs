//! Host-speed reference: a fixed kernel that shares no code and no memory
//! with corescope, timed between units of measured work, so that
//! end-to-end times can be reported at a fixed host speed.
//!
//! On a shared host the speed of the same code drifts by up to 1.7x over
//! minutes, and the drift follows contention for the shared last-level
//! cache and memory: a pure ALU loop barely moves while the engine and
//! this kernel, which misses the private L2, move together. Over ten sweep
//! runs with distinct seeds on a shared 2-core host, the jobs=1 calls'
//! rate had a quartile spread of 0.21 of its median in wall time and 0.05
//! charged at the reference speed.
//!
//! The kernel cannot see the state the measured code leaves behind: it
//! works only in buffers allocated once when the sampler is made (never
//! the global heap, which the measured code fragments), and each timed
//! run starts after an untimed pass that brings its table back into the
//! caches the measured code used. It runs only between units of work, on
//! the thread that does them, while no scheduler worker runs. A sweep made
//! to leak 256 KiB of small blocks per call (peak resident set 60 MB to
//! 727 MB) lost 6% of its wall-time rate and 11% of its charged rate: the
//! sampler did not hide the regression.
//!
//! The kernel's time between two samples is taken to change linearly;
//! work that ran from `a` to `b` is charged its wall time times
//! `REFERENCE_S` over the kernel's mean time on `[a, b]`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seconds the kernel takes on the host the baseline was recorded on
/// (2-core x86-64 container, 2.1 GHz Xeon, 2 MiB L2 per core).
pub const REFERENCE_S: f64 = 0.003;

/// Least time between two samples taken by [`HostSpeed::tick`].
const INTERVAL: Duration = Duration::from_millis(50);

/// Table words: 8 MiB, four times a core's L2 cache.
const TABLE_WORDS: usize = 1 << 20;
const UPDATES: u64 = 250_000;
/// Sorted-vector maps of `KEYS` keys, built `MAPS` times.
const MAPS: u64 = 20;
const KEYS: u64 = 200;

/// The kernel's memory, allocated once.
#[derive(Debug)]
struct Buffers {
    table: Vec<u64>,
    keys: Vec<u64>,
    text: String,
}

impl Buffers {
    fn new() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
            keys: Vec::with_capacity(KEYS as usize),
            text: String::with_capacity(KEYS as usize * 32),
        }
    }

    /// Reads one word per cache line of the table.
    fn warm(&self) -> u64 {
        black_box(self.table.iter().step_by(8).fold(0, |a, &w| a ^ w))
    }

    /// One run of the kernel: random read-modify-writes over the table,
    /// then sorted inserts and number formatting within fixed capacity.
    fn kernel(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = x as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(i);
        }
        let mut total = self.table[0];
        for k in 0..MAPS {
            self.keys.clear();
            self.text.clear();
            for i in 0..KEYS {
                let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let at = self.keys.binary_search(&key).unwrap_or_else(|at| at);
                self.keys.insert(at, key);
                let _ = write!(self.text, "{i}-{k} ");
            }
            total += (self.keys.len() + self.text.len()) as u64;
        }
        black_box(total)
    }
}

/// One kernel run: when it ran (seconds since the sampler started, at its
/// midpoint) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    at: f64,
    seconds: f64,
}

/// The kernel's time at `t`: linear between samples, constant beyond the
/// first and the last. `samples` is non-empty and sorted by `at`.
fn value(samples: &[Sample], t: f64) -> f64 {
    let i = samples.partition_point(|s| s.at <= t);
    if i == 0 {
        return samples[0].seconds;
    }
    let Some(next) = samples.get(i) else { return samples[i - 1].seconds };
    let prev = samples[i - 1];
    prev.seconds + (next.seconds - prev.seconds) * (t - prev.at) / (next.at - prev.at)
}

/// The kernel's mean time over `[a, b]` (its time at `a` when `b <= a`).
fn mean_over(samples: &[Sample], a: f64, b: f64) -> f64 {
    if b <= a {
        return value(samples, a);
    }
    // The curve is linear between these points, so trapezoids are exact.
    let mut points = vec![a];
    points.extend(samples.iter().map(|s| s.at).filter(|&t| t > a && t < b));
    points.push(b);
    let area: f64 = points
        .windows(2)
        .map(|w| (w[1] - w[0]) * (value(samples, w[0]) + value(samples, w[1])) / 2.0)
        .sum();
    area / (b - a)
}

#[derive(Debug)]
struct State {
    buffers: Buffers,
    samples: Vec<Sample>,
    last: Instant,
}

/// Reference samples of one run. Off (traced runs) it takes none and every
/// factor is 1.
#[derive(Debug)]
pub struct HostSpeed {
    epoch: Instant,
    state: Option<Mutex<State>>,
}

impl HostSpeed {
    /// A sampler that runs the kernel (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        let state = on.then(|| {
            let mut buffers = Buffers::new();
            buffers.kernel();
            Mutex::new(State { buffers, samples: Vec::new(), last: Instant::now() })
        });
        Self { epoch: Instant::now(), state }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.state.as_ref().map(|s| s.lock().expect("host sampler poisoned"))
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Runs the kernel once and records its time.
    pub fn sample(&self) {
        if let Some(mut s) = self.lock() {
            self.run(&mut s);
        }
    }

    /// Runs the kernel unless it ran within the last `INTERVAL`. Called
    /// between units of measured work, never inside one.
    pub fn tick(&self) {
        if let Some(mut s) = self.lock() {
            if s.last.elapsed() >= INTERVAL {
                self.run(&mut s);
            }
        }
    }

    fn run(&self, s: &mut State) {
        s.buffers.warm();
        let started = Instant::now();
        s.buffers.kernel();
        let seconds = started.elapsed().as_secs_f64();
        s.samples.push(Sample { at: self.secs(started) + seconds / 2.0, seconds });
        s.last = Instant::now();
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.lock().map_or(0, |s| s.samples.len())
    }

    /// The factor that turns the wall time of work that ran from `from` to
    /// `to` into time at the reference speed: `REFERENCE_S` over the
    /// kernel's mean time on that interval. 1 without samples.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        match self.lock() {
            Some(s) if !s.samples.is_empty() => {
                REFERENCE_S / mean_over(&s.samples, self.secs(from), self.secs(to))
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_when_off_and_follows_the_samples_when_on() {
        let t = Instant::now();
        let off = HostSpeed::new(false);
        off.sample();
        off.tick();
        assert_eq!((off.samples(), off.factor(t, Instant::now())), (0, 1.0));
        let on = HostSpeed::new(true);
        assert_eq!(on.factor(t, t), 1.0, "no samples yet");
        on.sample();
        on.tick(); // within the interval: no sample
        assert_eq!(on.samples(), 1);
        let seconds = on.lock().unwrap().samples[0].seconds;
        assert!((on.factor(t, Instant::now()) - REFERENCE_S / seconds).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_stays_within_its_buffers() {
        let mut buffers = Buffers::new();
        let (table, keys, text) =
            (buffers.table.as_ptr(), buffers.keys.as_ptr(), buffers.text.as_ptr());
        buffers.kernel();
        buffers.warm();
        buffers.kernel();
        // Nothing grew past its capacity, so nothing was reallocated.
        assert_eq!(
            (buffers.table.as_ptr(), buffers.keys.as_ptr(), buffers.text.as_ptr()),
            (table, keys, text)
        );
    }

    #[test]
    fn the_kernel_time_is_interpolated_between_samples_and_averaged_over_the_work() {
        let s = |at, seconds| Sample { at, seconds };
        let samples = [s(1.0, 2.0), s(3.0, 4.0), s(4.0, 4.0)];
        assert_eq!(value(&samples, 0.0), 2.0);
        assert_eq!(value(&samples, 2.0), 3.0);
        assert_eq!(value(&samples, 9.0), 4.0);
        assert_eq!(mean_over(&samples, 2.0, 2.0), 3.0);
        // [0, 1] at 2, [1, 3] rising from 2 to 4 (mean 3), [3, 5] at 4.
        let mean = mean_over(&samples, 0.0, 5.0);
        assert!((mean - (2.0 + 2.0 * 3.0 + 2.0 * 4.0) / 5.0).abs() < 1e-12);
    }
}
