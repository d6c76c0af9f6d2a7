//! Seeded inputs: the scale-2 six-matrix corpus, value variants and
//! right-hand sides. Everything the solver receives is made here, before
//! any timing starts.

use pangulu_sparse::{gen, CscMatrix};

/// Generator dimension multiplier of the corpus (n = 2000–16384).
pub const SCALE: usize = 2;

/// Relative amplitude of the per-variant value perturbation (±0.5%).
const PERTURBATION: f64 = 0.005;

/// SplitMix64: a small, fully specified generator, so the same seed
/// gives the same inputs on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// One set of values on a case's fixed pattern, with the right-hand
/// sides an op solves against it.
pub struct Variant {
    pub a: CscMatrix,
    /// `‖A‖∞`, for the backward-error check.
    pub norm_inf: f64,
    pub rhs: Vec<Vec<f64>>,
}

/// One corpus matrix and its pre-generated variants.
pub struct Case {
    pub name: &'static str,
    pub variants: Vec<Variant>,
}

/// The six corpus patterns; the random generators take their seeds from
/// `rng`, so the workload seed drives the structure too.
fn patterns(rng: &mut Rng) -> Vec<(&'static str, CscMatrix)> {
    let s = SCALE;
    vec![
        ("laplacian_2d", gen::laplacian_2d(64 * s, 64 * s)),
        ("circuit", gen::circuit(3000 * s, rng.next_u64())),
        ("fem_blocked", gen::fem_blocked(240 * s, 5, 2, rng.next_u64())),
        ("kkt", gen::kkt(1200 * s, 560 * s, rng.next_u64())),
        ("cage_like", gen::cage_like(1600 * s, rng.next_u64())),
        ("dense_banded", gen::dense_banded(1000 * s, 12 * s, 0.5, rng.next_u64())),
    ]
}

/// `max_i Σ_j |a_ij|`.
fn norm_inf(a: &CscMatrix) -> f64 {
    let mut rows = vec![0.0f64; a.nrows()];
    for (i, _, v) in a.iter() {
        rows[i] += v.abs();
    }
    rows.into_iter().fold(0.0, f64::max)
}

/// How the variants of one corpus matrix differ.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// Each variant is a fresh matrix from the generator (new structure
    /// for the random generators), its values then perturbed.
    FreshPatterns,
    /// One pattern per matrix; each variant perturbs its values.
    PerturbedValues,
    /// One pattern and one set of values; only the right-hand sides
    /// differ.
    FixedValues,
}

/// Builds the corpus for `seed`: per matrix, `variants` matrices (each
/// entry scaled by `1 ± 0.5%`) with `nrhs` right-hand sides each.
pub fn generate(seed: u64, variants: usize, nrhs: usize, inputs: Inputs) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    let pattern_sets = if inputs == Inputs::FreshPatterns { variants } else { 1 };
    let sets: Vec<_> = (0..pattern_sets).map(|_| patterns(&mut rng)).collect();
    let mut cases: Vec<Case> =
        sets[0].iter().map(|(name, _)| Case { name, variants: Vec::new() }).collect();
    for vi in 0..variants {
        for (k, case) in cases.iter_mut().enumerate() {
            let a = match case.variants.first() {
                Some(first) if inputs == Inputs::FixedValues => first.a.clone(),
                _ => {
                    let mut a = sets[vi % pattern_sets][k].1.clone();
                    for v in a.values_mut() {
                        *v *= 1.0 + PERTURBATION * rng.symmetric_unit();
                    }
                    a
                }
            };
            let rhs =
                (0..nrhs).map(|_| (0..a.nrows()).map(|_| rng.symmetric_unit()).collect()).collect();
            case.variants.push(Variant { norm_inf: norm_inf(&a), a, rhs });
        }
    }
    cases
}
