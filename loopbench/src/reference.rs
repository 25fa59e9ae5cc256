//! The frozen native reference kernel and the host drift sentinel.
//!
//! Every gated time in this benchmark is scaled by the speed of this
//! kernel, measured in the same run: `fastest × (REF_US / fastest
//! reference)`.  The host the benchmark was tuned on alternates between a
//! fast and a slow phase; in the slow phase the looplet VM, the compiler
//! and the service slow down 1.45–1.6x while tight native loops barely
//! move.  Probing candidate references showed that allocation-heavy,
//! pointer-chasing code with a large instruction footprint tracks the
//! measured code best (1.47–1.57x), so the reference builds a small symbol
//! table: formatted string keys in a `BTreeMap`, then looks every key up.
//!
//! Nothing here depends on the code under test, and nothing may change
//! once the benchmark's baselines exist: editing this file (or its
//! constants) re-scales every calibrated number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference speed the calibrated metrics are scaled to: the fastest
/// time, in µs, of one [`run`] on the fast phase of the host the benchmark
/// was tuned on (2-core x86-64 VM).  A constant, so calibrated metrics
/// stay in µs.
pub const REF_US: f64 = 225.0;

/// Reference samples slower than this multiple of the run's fastest
/// reference sample count as taken in the host's slow phase.
pub const SLOW_PHASE_FACTOR: f64 = 1.3;

const KEYS: u64 = 600;

/// One execution of the reference: build a symbol table of [`KEYS`]
/// formatted keys and look each one up again.  Returns a checksum.
pub fn run() -> u64 {
    let mut table: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..KEYS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        table.entry(format!("sym{}", state % 9973)).or_default().push(i);
    }
    let mut sum = 0u64;
    for k in 0..KEYS {
        if let Some(v) = table.get(&format!("sym{}", k * 7 % 9973)) {
            sum += v.len() as u64;
        }
    }
    sum + table.len() as u64
}

/// The checksum [`run`] must return: a changed answer means the reference
/// itself changed and every calibrated number with it.
pub const EXPECTED: u64 = 617;

/// Time one execution, in µs.
pub fn sample_us() -> f64 {
    let start = Instant::now();
    black_box(run());
    start.elapsed().as_secs_f64() * 1e6
}

/// The drift sentinel: every reference sample of a run.
#[derive(Debug, Default, Clone)]
pub struct Sentinel {
    samples: Vec<f64>,
}

impl Sentinel {
    /// Take one reference sample.
    pub fn sample(&mut self) {
        self.samples.push(sample_us());
    }

    /// Fastest reference sample, µs.
    pub fn fastest(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median reference sample, µs.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Number of reference samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Share of reference samples taken in the slow phase.
    pub fn slow_share(&self) -> f64 {
        let cut = self.fastest() * SLOW_PHASE_FACTOR;
        self.samples.iter().filter(|&&s| s > cut).count() as f64 / self.samples.len().max(1) as f64
    }

    /// The factor that scales the fastest of `n` raw samples taken in this
    /// run to the reference speed: `REF_US` over the `1/(n+1)` quantile of
    /// the reference samples, the reference time that is as lucky as the
    /// fastest of `n` draws.  A kernel sampled thousands of times is scaled
    /// by about the fastest reference sample; a compile sampled a hundred
    /// times, which catches the host's rare fast moments less often, by a
    /// correspondingly less lucky one.
    pub fn scale_for(&self, n: usize) -> f64 {
        REF_US / crate::stats::quantile(&self.samples, 1.0 / (n as f64 + 1.0))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_answer_is_frozen() {
        assert_eq!(super::run(), super::EXPECTED);
    }
}
