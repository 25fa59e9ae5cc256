//! Seeded input generation.  Everything the benchmark feeds the program is
//! drawn from one SplitMix64 stream per input, keyed by the workload seed,
//! so a seed names the inputs exactly and an unseen seed re-checks a claim
//! on fresh data.

/// SplitMix64: small, fast, and good enough for synthetic inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for input `salt` of the workload seeded with `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A length-`n` vector with exactly `count` nonzeros (in `lo..hi`, which
/// excludes zero), stratified: one at a random offset in each of `count`
/// equal buckets, so any stretch of the vector holds about the same number
/// of nonzeros whatever the seed.
pub fn counted(rng: &mut Rng, n: usize, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut out = vec![0.0; n];
    let count = count.clamp(1, n);
    let bucket = n / count;
    for b in 0..count {
        out[b * bucket + rng.range(0, bucket)] = rng.uniform(lo, hi);
    }
    out
}

/// A length-`n` vector with exactly `count` nonzeros in `0.5..10`.
pub fn counted_vector(rng: &mut Rng, n: usize, count: usize) -> Vec<f64> {
    counted(rng, n, count, 0.5, 10.0)
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.range(0, i + 1));
    }
    p
}

/// A Harwell-Boeing-like `n × n` matrix: a diagonal band, `blocks` dense
/// `n/8`-square blocks, and `scatter` random entries (dense row-major).
/// Block `b` lies in row stratum `b` and in a column stratum half the
/// matrix away, aligned to multiples of 8 columns, so blocks never overlap
/// the band or each other and every seed gives the same number of stored
/// entries; only positions and values depend on the stream.
pub fn scientific_matrix(
    rng: &mut Rng,
    n: usize,
    band: usize,
    blocks: usize,
    scatter: usize,
) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in i.saturating_sub(band)..=(i + band).min(n - 1) {
            a[i * n + j] = rng.uniform(0.1, 10.0);
        }
    }
    let size = n / 8;
    let stratum = n / blocks;
    for b in 0..blocks {
        let top = b * stratum + rng.range(0, stratum - size + 1);
        let left = (b + blocks / 2) % blocks * stratum + 8 * rng.range(0, (stratum - size) / 8 + 1);
        for i in top..top + size {
            for j in left..left + size {
                a[i * n + j] = rng.uniform(0.1, 10.0);
            }
        }
    }
    let mut placed = 0;
    while placed < scatter {
        let k = rng.range(0, n * n);
        if a[k] == 0.0 {
            a[k] = rng.uniform(0.1, 10.0);
            placed += 1;
        }
    }
    a
}

/// A symmetric 0/1 adjacency matrix with a power-law degree distribution
/// (preferential attachment), dense row-major.  The graph is grown from a
/// fixed stream and its vertices are then relabelled by a permutation
/// drawn from `rng`: every seed gives a different matrix with the same
/// degree sequence and triangle count, so the work barely moves with the
/// seed while the sparsity pattern does.
pub fn power_law_graph(rng: &mut Rng, n: usize, edges_per_node: usize) -> Vec<f64> {
    let label = permutation(rng, n);
    let mut rng = Rng::new(0x6EA9, 0);
    let rng = &mut rng;
    let mut adj = vec![0.0; n * n];
    let mut ends: Vec<usize> = Vec::new();
    for v in 1..n {
        for _ in 0..edges_per_node.min(v) {
            let u = if ends.is_empty() || rng.unit() < 0.2 {
                rng.range(0, v)
            } else {
                ends[rng.range(0, ends.len())]
            };
            if u != v {
                adj[label[v] * n + label[u]] = 1.0;
                adj[label[u] * n + label[v]] = 1.0;
                ends.push(u);
                ends.push(v);
            }
        }
    }
    adj
}

/// An `n × n` grid with exactly `count` nonzero cells (in `0.5..2`).
pub fn sparse_grid(rng: &mut Rng, n: usize, count: usize) -> Vec<f64> {
    counted(rng, n * n, count, 0.5, 2.0)
}

/// An Omniglot-like image: `strokes` pen strokes with a 3×3 brush on a
/// zero background, with integer pixel values.  Stroke `k` runs left to
/// right through its own horizontal band of the image, wandering up and
/// down at random, so strokes never cross and every seed inks about the
/// same number of pixels.
pub fn stroke_image(rng: &mut Rng, size: usize, strokes: usize) -> Vec<f64> {
    let mut img = vec![0.0; size * size];
    let band = size / strokes;
    for k in 0..strokes {
        let (lo, hi) = (k * band + 1, (k + 1) * band - 2);
        let mut row = rng.range(lo, hi + 1);
        for col in 1..size - 1 {
            for r in row - 1..=row + 1 {
                for c in col - 1..=col + 1 {
                    img[r * size + c] = rng.uniform(100.0, 255.0).round();
                }
            }
            row = (row + rng.range(0, 3)).saturating_sub(1).clamp(lo, hi);
        }
    }
    img
}

/// An MNIST-like image: a radial blob of integer pixel values, of fixed
/// radius around a jittered centre.
pub fn blob_image(rng: &mut Rng, size: usize) -> Vec<f64> {
    let c = size as f64 / 2.0;
    let (cx, cy) = (c + rng.uniform(-2.0, 2.0), c + rng.uniform(-2.0, 2.0));
    let radius = size as f64 * 0.28;
    let mut img = vec![0.0; size * size];
    for i in 0..size {
        for j in 0..size {
            let d = ((i as f64 - cx).powi(2) + (j as f64 - cy).powi(2)).sqrt();
            if d < radius {
                img[i * size + j] = ((1.0 - d / radius) * 255.0).round();
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded() {
        let a = counted_vector(&mut Rng::new(7, 1), 100, 30);
        assert_eq!(a, counted_vector(&mut Rng::new(7, 1), 100, 30));
        assert_ne!(a, counted_vector(&mut Rng::new(8, 1), 100, 30));
        let c = counted_vector(&mut Rng::new(7, 2), 100, 10);
        assert_eq!(c.iter().filter(|&&v| v != 0.0).count(), 10);
    }
}
