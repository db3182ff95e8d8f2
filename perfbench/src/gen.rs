//! Seeded input generation.
//!
//! Every workload's initial field is derived from `--seed` here and
//! written cell by cell into the hierarchy: the program under test sees
//! only the generated values, never the seed or a problem description.
//! The seed moves each feature within a bounded jitter around a fixed
//! slot, so the amount of refined work varies by a few percent between
//! seeds while the inputs themselves differ.

use xlayer::amr::hierarchy::AmrHierarchy;
use xlayer::amr::intvect::IntVect;
use xlayer::solvers::euler::Primitive;
use xlayer::solvers::EulerSolver;

/// SplitMix64: a tiny, well-mixed generator whose stream is a pure
/// function of the seed on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A spherical over-pressured region (the polytropic-gas blast wave).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blast {
    /// Centre, in base-level cell coordinates.
    pub center: [f64; 3],
    /// Radius, in base-level cells.
    pub radius: f64,
}

/// One Gaussian blob of the advected scalar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blob {
    /// Centre, in base-level cell coordinates.
    pub center: [f64; 3],
    /// Standard deviation, in base-level cells.
    pub sigma: f64,
}

/// Pressure inside and outside the blast region.
const P_IN: f64 = 10.0;
const P_OUT: f64 = 0.1;
const GAMMA: f64 = 1.4;

/// The shift a seed applies to a feature: `-stride` or `+stride` base
/// cells per axis. A shift by whole multiples of the grid-generation
/// stride moves the feature without changing how the refined grids tile
/// it, and the two signs mirror each other in a cubic domain, so seeds
/// differ in data, not in amount of work.
fn shift(rng: &mut SplitMix64, stride: i64) -> [f64; 3] {
    std::array::from_fn(|_| {
        if rng.next_u64() & 1 == 0 {
            -stride as f64
        } else {
            stride as f64
        }
    })
}

/// The blast for `seed` on an `n`³ domain with `levels` AMR levels:
/// centred in the domain shifted by ±`stride` per axis, with a radius
/// near `n/6` drawn from the middle half of the gap between the two
/// cell-centre shells that bracket it. Every seed's sphere therefore
/// holds the same number of cells on every level.
pub fn blast(seed: u64, n: i64, stride: i64, levels: usize) -> Blast {
    let mut rng = SplitMix64::new(seed ^ 0xB1A5_7000);
    let off = shift(&mut rng, stride);
    let center = off.map(|o| (n / 2) as f64 + o);
    let (below, above) = shell_gap(n as f64 / 6.0, levels);
    let radius = below + (above - below) * rng.range(0.25, 0.75);
    Blast { center, radius }
}

/// The largest cell-centre distance `<= r0` and the smallest `> r0`, over
/// cells of the first `levels` levels (refinement ratio 2) around an
/// integer-coordinate centre.
fn shell_gap(r0: f64, levels: usize) -> (f64, f64) {
    let (mut below, mut above) = (0.0f64, f64::INFINITY);
    for l in 0..levels {
        let scale = (1i64 << l) as f64;
        let k = ((r0 + 1.0) * scale).ceil() as i64;
        let c = |j: i64| (j as f64 + 0.5) / scale;
        for i in -k..k {
            for j in -k..k {
                for m in -k..k {
                    let d = (c(i).powi(2) + c(j).powi(2) + c(m).powi(2)).sqrt();
                    if d <= r0 {
                        below = below.max(d);
                    } else {
                        above = above.min(d);
                    }
                }
            }
        }
    }
    (below, above)
}

/// `count` blobs for `seed` on a periodic `n`³ domain. Blob `k` sits in
/// its own slot along a diagonal band; the seed shifts the whole set by
/// ±`stride` per axis and sets each width to `n/16` ± 1%.
pub fn blobs(seed: u64, n: i64, count: usize, stride: i64) -> Vec<Blob> {
    let mut rng = SplitMix64::new(seed ^ 0xB10B_0000);
    let off = shift(&mut rng, stride);
    let n = n as f64;
    (0..count)
        .map(|k| {
            let slot = (k as f64 + 0.5) / count as f64;
            let base = [slot, 1.0 - slot, 0.5];
            let center =
                std::array::from_fn(|d| (n * (0.2 + 0.6 * base[d]) + off[d]).rem_euclid(n));
            let sigma = n / 16.0 * rng.range(0.99, 1.01);
            Blob { center, sigma }
        })
        .collect()
}

/// Base-coordinate centre of cell `iv` on a level refined by `scale`.
fn position(iv: IntVect, scale: f64) -> [f64; 3] {
    [0, 1, 2].map(|d| (iv[d] as f64 + 0.5) / scale)
}

/// Write the blast's conserved state into every level of a 5-component
/// gas hierarchy.
pub fn fill_gas(h: &mut AmrHierarchy, b: &Blast) {
    for l in 0..h.num_levels() {
        let scale = h.ref_ratio().pow(l as u32) as f64;
        h.level_mut(l).for_each_mut(|valid, fab| {
            for iv in valid.cells() {
                let p = position(iv, scale);
                let r2: f64 = (0..3).map(|d| (p[d] - b.center[d]).powi(2)).sum();
                let state = Primitive {
                    rho: 1.0,
                    vel: [0.0; 3],
                    p: if r2.sqrt() <= b.radius { P_IN } else { P_OUT },
                };
                EulerSolver::set_state(fab, iv, state.to_conserved(GAMMA));
            }
        });
    }
}

/// The sum of `blobs` at base-coordinate point `p` of a periodic domain
/// of side `n` (nearest-image distance).
pub fn scalar_at(blobs: &[Blob], n: f64, p: [f64; 3]) -> f64 {
    blobs
        .iter()
        .map(|b| {
            let r2: f64 = (0..3)
                .map(|d| {
                    let a = (p[d] - b.center[d]).rem_euclid(n);
                    a.min(n - a).powi(2)
                })
                .sum();
            (-r2 / (2.0 * b.sigma * b.sigma)).exp()
        })
        .sum()
}

/// Write the blobs into every level of a 1-component hierarchy.
pub fn fill_scalar(h: &mut AmrHierarchy, blobs: &[Blob]) {
    let n = h.domain(0).domain_box().size()[0] as f64;
    for l in 0..h.num_levels() {
        let scale = h.ref_ratio().pow(l as u32) as f64;
        h.level_mut(l).for_each_mut(|valid, fab| {
            for iv in valid.cells() {
                fab.set(iv, 0, scalar_at(blobs, n, position(iv, scale)));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(blast(7, 32, 4, 2), blast(7, 32, 4, 2));
        assert_eq!(blobs(7, 48, 3, 8), blobs(7, 48, 3, 8));
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_move_the_features() {
        assert_ne!(blast(1, 32, 4, 2), blast(2, 32, 4, 2));
        assert_ne!(blobs(1, 48, 3, 8), blobs(2, 48, 3, 8));
    }

    #[test]
    fn features_stay_within_their_jitter_bounds() {
        let (below, above) = shell_gap(8.0, 2);
        assert!(below <= 8.0 && 8.0 < above);
        for seed in 0..200 {
            let b = blast(seed, 48, 4, 2);
            assert!(b.center.iter().all(|&c| c == 20.0 || c == 28.0));
            assert!(below < b.radius && b.radius < above);
            for blob in blobs(seed, 48, 3, 8) {
                assert!(blob.center.iter().all(|&c| (0.0..48.0).contains(&c)));
                assert!((2.97..3.03).contains(&blob.sigma));
            }
        }
    }

    #[test]
    fn every_seed_puts_the_same_cells_inside_the_blast() {
        // Count base and fine cell centres inside the sphere, relative to
        // its (integer) centre: equal for all seeds.
        let inside = |b: &Blast| {
            let mut count = 0;
            for scale in [1.0, 2.0] {
                for i in -20i64..20 {
                    for j in -20i64..20 {
                        for m in -20i64..20 {
                            let c = |x: i64| (x as f64 + 0.5) / scale;
                            let d = (c(i).powi(2) + c(j).powi(2) + c(m).powi(2)).sqrt();
                            count += usize::from(d <= b.radius);
                        }
                    }
                }
            }
            count
        };
        let first = inside(&blast(0, 48, 4, 2));
        assert!(first > 0);
        for seed in 1..20 {
            assert_eq!(inside(&blast(seed, 48, 4, 2)), first, "seed {seed}");
        }
    }

    #[test]
    fn blob_field_is_periodic() {
        let b = blobs(3, 48, 3, 8);
        let v = scalar_at(&b, 48.0, [0.5, 10.0, 20.0]);
        let w = scalar_at(&b, 48.0, [48.5, 10.0, 20.0]);
        assert!((v - w).abs() < 1e-12);
    }

    #[test]
    fn splitmix_matches_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
