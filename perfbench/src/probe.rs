//! Host-speed probe: a fixed piece of single-threaded work, owned by the
//! benchmark and independent of the solver, timed between ops.
//!
//! On a shared host the machine's speed drifts by tens of percent over
//! seconds to minutes as other load comes and goes, and the probe's time
//! drifts with it. A latency scaled by the probe's reference time over
//! its time around the op is the latency the op would have had on the
//! reference host: it stays put when the host slows down but moves when
//! the solver does.
//!
//! Each timed pass follows an untimed pass over the same data and then a
//! write sweep that pushes those data out of the core's private caches,
//! so the timed pass always finds them in the shared last-level cache:
//! it meets the shared cache as an op does, but does not depend on what
//! the solver left in the caches, so a change to the solver's memory use
//! does not move it.

use std::hint::black_box;
use std::time::Instant;

use crate::corpus::Rng;
use crate::median;

/// Probe time, in seconds, right after an op on the reference host (2
/// vCPUs of an Intel Xeon 4th-generation server at its usual load):
/// timings are reported as if every run ran at that speed.
pub const REF_S: f64 = 1.3e-3;
/// Probes on each side of an interval whose median sets the host speed
/// around it.
const WINDOW: usize = 3;

/// A sequence of timed intervals with a probe before each and one after
/// the last.
pub struct Timeline {
    probe: Probe,
    probes: Vec<f64>,
}

impl Timeline {
    pub fn new() -> Self {
        Timeline { probe: Probe::new(), probes: Vec::new() }
    }

    /// Runs a probe; call it before each interval and after the last.
    /// Returns the index of the interval that follows it.
    pub fn probe(&mut self) -> usize {
        self.probes.push(self.probe.run());
        self.probes.len() - 1
    }

    /// Median probe time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.probes)
    }

    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Reference host speed over the host's speed around interval `i`,
    /// from the median of the probes nearest to it: probe `i` ran just
    /// before it, probe `i + 1` just after.
    pub fn speed(&self, i: usize) -> f64 {
        let near = i.saturating_sub(WINDOW - 1)..(i + 1 + WINDOW).min(self.probes.len());
        REF_S / median(&self.probes[near])
    }
}

/// Keys sorted per pass (64 KiB): integer, branchy work, like the
/// ordering and symbolic phases.
const SORT_KEYS: usize = 16 * 1024;
/// Edge of the dense matrices multiplied per pass (3 × 72 KiB):
/// floating-point work, like the numeric kernels.
const DENSE: usize = 96;
/// Loads per pass from random places in a table of [`TABLE`] entries
/// (16 MiB): irregular memory traffic.
const LOADS: usize = 64 * 1024;
const TABLE: usize = 4 << 20;
/// Words written between the untimed and the timed pass (4 MiB, twice a
/// core's L2 cache).
const EVICT: usize = 512 * 1024;

pub struct Probe {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    table: Vec<u32>,
    at: Vec<u32>,
    evict: Vec<u64>,
}

impl Probe {
    /// The inputs come from a fixed seed, so every probe does the same
    /// work in every run.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed_cafe);
        let keys: Vec<u32> = (0..SORT_KEYS).map(|_| rng.next_u64() as u32).collect();
        let table: Vec<u32> = (0..TABLE).map(|_| rng.next_u64() as u32).collect();
        let at: Vec<u32> = (0..LOADS).map(|_| (rng.next_u64() % TABLE as u64) as u32).collect();
        let mut dense = || (0..DENSE * DENSE).map(|_| rng.symmetric_unit()).collect::<Vec<f64>>();
        let (a, b) = (dense(), dense());
        Probe {
            scratch: keys.clone(),
            keys,
            a,
            b,
            c: vec![0.0; DENSE * DENSE],
            table,
            at,
            evict: vec![0; EVICT],
        }
    }

    /// Runs the probe: an untimed pass, the write sweep, then a timed
    /// pass; returns the seconds the timed pass took.
    pub fn run(&mut self) -> f64 {
        self.pass();
        for w in self.evict.iter_mut() {
            *w = w.wrapping_add(1);
        }
        black_box(&self.evict);
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64()
    }

    fn pass(&mut self) {
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(&self.scratch);

        self.c.fill(0.0);
        for i in 0..DENSE {
            let crow = &mut self.c[i * DENSE..(i + 1) * DENSE];
            for k in 0..DENSE {
                let aik = self.a[i * DENSE + k];
                for (c, b) in crow.iter_mut().zip(&self.b[k * DENSE..(k + 1) * DENSE]) {
                    *c -= aik * b;
                }
            }
        }
        black_box(&self.c);

        let table = &self.table;
        black_box(self.at.iter().fold(0u64, |s, &i| s.wrapping_add(u64::from(table[i as usize]))));
    }
}
