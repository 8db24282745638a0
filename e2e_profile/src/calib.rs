//! Machine-speed calibration.
//!
//! The shared machines this benchmark runs on change speed by up to 2× over
//! minutes (other tenants, frequency), far more than the bounds a change is
//! judged by. The benchmark therefore interleaves a fixed kernel written
//! only against `std` with its requests and scales every time it reports by
//! `REFERENCE_MS / kernel time nearby`: a time is reported as it would read
//! on a machine where the kernel takes `REFERENCE_MS`. No code of the
//! program under test runs in the kernel, so a change to the program moves
//! the reported times and a change of machine speed does not.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The kernel's time on the reference machine state, in ms.
pub const REFERENCE_MS: f64 = 2.0;

/// How far around a request its calibration samples may lie, in s: long
/// enough for a steady median, short against the machine's speed changes.
pub const WINDOW_S: f64 = 1.0;

/// How often the timed loop takes a calibration sample.
pub const EVERY: Duration = Duration::from_millis(50);

/// The kernel: allocation, string compares and pointer chasing, like the
/// compiler and simulator work it stands in for.
fn kernel() {
    let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for i in 0..5_000u64 {
        m.insert(
            format!("k{}", i.wrapping_mul(2_654_435_761) % 100_003),
            vec![i; 4],
        );
    }
    std::hint::black_box(&m);
}

/// Wall time in ms of the kernel run once on each of `threads` threads at
/// the same time: a workload that keeps two cores busy is slowed by either.
fn kernel_ms(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(kernel);
        }
        kernel();
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Calibration samples, each with the time it was taken.
#[derive(Default)]
pub struct Samples {
    /// Threads the kernel runs on: as many as the workload keeps busy.
    threads: usize,
    /// `(seconds since the run started, kernel ms)`, in time order.
    at: Vec<(f64, f64)>,
}

impl Samples {
    pub fn new(threads: usize) -> Self {
        Samples {
            threads,
            at: Vec::new(),
        }
    }

    pub fn take(&mut self, now_s: f64) {
        self.at.push((now_s, kernel_ms(self.threads)));
    }

    pub fn last_s(&self) -> Option<f64> {
        self.at.last().map(|&(t, _)| t)
    }

    /// Scale factor for work done between `from_s` and `to_s`: reference
    /// over the median of the samples taken within `WINDOW_S` of that
    /// interval (at least the nearest one on each side).
    pub fn scale(&self, from_s: f64, to_s: f64) -> f64 {
        let mut near: Vec<f64> = self
            .at
            .iter()
            .filter(|&&(t, _)| t >= from_s - WINDOW_S && t <= to_s + WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            let before = self.at.iter().rev().find(|&&(t, _)| t <= from_s);
            let after = self.at.iter().find(|&&(t, _)| t >= to_s);
            near.extend(before.into_iter().chain(after).map(|&(_, ms)| ms));
        }
        if near.is_empty() {
            return 1.0;
        }
        REFERENCE_MS / crate::stats::median(&near)
    }

    /// Median kernel time over all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        let v: Vec<f64> = self.at.iter().map(|&(_, ms)| ms).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_samples_near_the_interval() {
        let s = Samples {
            threads: 1,
            at: vec![(0.0, 4.0), (1.0, 2.0), (1.2, 2.0), (5.0, 1.0)],
        };
        // The samples at 1.0 and 1.2 lie near the interval and read
        // REFERENCE_MS; the one at 0.0 is within the window too, but the
        // median ignores it.
        assert_eq!(s.scale(1.05, 1.1), 1.0);
        // Only the sample at 5.0 lies within a second of [4.5, 4.9].
        assert_eq!(s.scale(4.5, 4.9), 2.0);
        // Nothing within a second: the nearest sample on each side.
        assert_eq!(s.scale(2.5, 3.0), REFERENCE_MS / 1.5);
        assert_eq!(Samples::default().scale(0.0, 1.0), 1.0);
    }
}
