//! End-to-end benchmark of the PanguLU solver through its public
//! `Solver` API.
//!
//! ```text
//! perfbench --workload <oneshot|transient|solve_many> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject-slowdown <factor>]
//! ```
//!
//! Set-up generates every input from the seed (and, for the two
//! steady-state workloads, builds one solver per corpus matrix); the
//! timed loop then runs ops in whole passes over the corpus, one caller
//! in a closed loop, until `--seconds` have elapsed. Every op's output is
//! checked. The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the lines before it name the machine facts and every
//! metric with its unit.
//!
//! Timings are reported at a reference host speed: a fixed probe of the
//! benchmark's own work (`probe.rs`) runs between ops, and every latency
//! is scaled by the probe's reference time over the median time of the
//! probes nearest to it, so that other load on a shared host, which
//! slows op and probe alike, cancels out. The value as measured is
//! printed beside each timing.
//!
//! For the harness self-test, `--inject-slowdown` stretches every op by
//! a known factor inside the op loop.

mod corpus;
mod probe;
mod trace;

use std::hint::black_box;
use std::time::{Duration, Instant};

use pangulu_core::Solver;
use pangulu_sparse::ops::spmv;
use pangulu_sparse::CscMatrix;

use corpus::{Inputs, Variant};
use pangulu_core::solver::FactorStats;
use probe::Timeline;
use trace::{Layers, Traced, Tracer};

/// Ranks of the two steady-state workloads (in-process channel transport).
const MULTI_RANKS: usize = 2;
/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Largest accepted normwise backward error
/// `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`.
const BACKWARD_ERROR_BOUND: f64 = 1e-10;
/// Passes over the corpus every run makes, whatever `--seconds` says:
/// an untraced run then sees every variant, and with six matrices the
/// slowest third of the samples (two matrices, at least sixteen ops)
/// holds the [`TAIL_SAMPLES`] beyond the tail percentile, so the tail
/// never jumps between matrices from run to run. Traced runs give every
/// other op to their traced arm.
const MIN_PASSES: usize = VARIANTS;
/// Samples that must lie beyond the reported tail percentile.
const TAIL_SAMPLES: usize = 10;
/// Variants generated per matrix; passes cycle through them.
const VARIANTS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    /// 1 rank: build on a freshly generated matrix, then one solve.
    OneShot,
    /// 2 ranks: refactor on perturbed values, then one solve.
    Transient,
    /// 2 ranks: one `solve_multi` on a block of right-hand sides.
    SolveMany,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "oneshot" => Some(Workload::OneShot),
            "transient" => Some(Workload::Transient),
            "solve_many" => Some(Workload::SolveMany),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OneShot => "oneshot",
            Workload::Transient => "transient",
            Workload::SolveMany => "solve_many",
        }
    }

    fn ranks(self) -> usize {
        if self == Workload::OneShot {
            1
        } else {
            MULTI_RANKS
        }
    }

    /// Right-hand sides per op.
    fn nrhs(self) -> usize {
        if self == Workload::SolveMany {
            8
        } else {
            1
        }
    }

    fn inputs(self) -> Inputs {
        match self {
            Workload::OneShot => Inputs::FreshPatterns,
            Workload::Transient => Inputs::PerturbedValues,
            Workload::SolveMany => Inputs::FixedValues,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    slowdown: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut slowdown) = (None, None, false, 1.0f64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--inject-slowdown" => {
                slowdown = value.parse().map_err(|_| bad("slowdown"))?;
                if !(slowdown.is_finite() && slowdown >= 1.0) {
                    return Err(bad("slowdown"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if trace && slowdown > 1.0 {
        return Err("--inject-slowdown needs --trace 0".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        slowdown,
    })
}

/// The set-up products: every input, and the steady-state solvers.
struct Fixture {
    cases: Vec<corpus::Case>,
    solvers: Vec<Solver>,
    /// Seconds each solver's build took.
    build_s: Vec<f64>,
}

/// Set-up steps: the step's interval on the run's timeline, and the
/// seconds the step took.
type Steps = Vec<(usize, f64)>;

/// Runs one set-up in steps, input generation and then each solver
/// build, with a probe on `tl` before each step.
fn set_up(w: Workload, seed: u64, tl: &mut Timeline) -> Result<(Fixture, Steps), String> {
    let mut steps = Vec::new();
    let interval = tl.probe();
    let t = Instant::now();
    let cases = corpus::generate(seed, VARIANTS, w.nrhs(), w.inputs());
    steps.push((interval, t.elapsed().as_secs_f64()));
    let (mut solvers, mut build_s) = (Vec::new(), Vec::new());
    if w != Workload::OneShot {
        for case in &cases {
            let v = &case.variants[0];
            let err = |e: pangulu_sparse::SparseError| format!("set-up on {}: {e}", case.name);
            let interval = tl.probe();
            let t = Instant::now();
            let mut s = Solver::builder().ranks(w.ranks()).build(&v.a).map_err(err)?;
            build_s.push(t.elapsed().as_secs_f64());
            // Let lazy state (the refactor scatter map) fill before timing.
            if w == Workload::Transient {
                s.refactor(&v.a).map_err(err)?;
            }
            s.solve_multi(&v.rhs).map_err(err)?;
            steps.push((interval, t.elapsed().as_secs_f64()));
            solvers.push(s);
        }
    }
    Ok((Fixture { cases, solvers, build_s }, steps))
}

/// Normwise backward error of `x` for `A x = b`; infinite when `x` is not
/// finite.
fn backward_error(a: &CscMatrix, norm_a: f64, x: &[f64], b: &[f64]) -> f64 {
    if !x.iter().all(|v| v.is_finite()) {
        return f64::INFINITY;
    }
    let ax = spmv(a, x).expect("solution length matches the matrix");
    let norm = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0f64, |m, e| m.max(e.abs()));
    let r = norm(&mut b.iter().zip(&ax).map(|(bi, ai)| bi - ai));
    r / (norm_a * norm(&mut x.iter().copied()) + norm(&mut b.iter().copied()))
}

/// The arm of a run an op belongs to. A traced run alternates plain
/// ops with traced ones, so both arms see the same machine state and
/// compare directly.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Plain,
    Traced,
}

/// One op's outcome.
struct OpRecord {
    /// Corpus index of the op's matrix.
    case: usize,
    secs: f64,
    /// The op's interval on the run's timeline.
    interval: usize,
    /// Reference host speed over the host's speed around the op.
    speed: f64,
    arm: Arm,
    /// Seconds of the op covered by its child spans (traced ops only).
    attributed: f64,
    /// Largest backward error over the op's right-hand sides.
    eta: f64,
    failure: Option<String>,
}

impl OpRecord {
    fn new(case: usize, secs: f64) -> Self {
        OpRecord {
            case,
            secs,
            interval: 0,
            speed: 1.0,
            arm: Arm::Plain,
            attributed: 0.0,
            eta: 0.0,
            failure: None,
        }
    }

    /// Seconds at the reference host speed with `at_ref`, otherwise as
    /// measured.
    fn latency(&self, at_ref: bool) -> f64 {
        if at_ref {
            self.secs * self.speed
        } else {
            self.secs
        }
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    /// Checks every solution of the op against its right-hand side.
    fn check(&mut self, v: &Variant, xs: Result<Vec<Vec<f64>>, pangulu_sparse::SparseError>) {
        match xs {
            Err(e) => self.fail(format!("solve: {e}")),
            Ok(xs) if xs.len() != v.rhs.len() => {
                self.fail(format!("{} solutions for {} right-hand sides", xs.len(), v.rhs.len()))
            }
            Ok(xs) => {
                for (x, b) in xs.iter().zip(&v.rhs) {
                    let eta = backward_error(&v.a, v.norm_inf, x, b);
                    self.eta = self.eta.max(eta);
                    if eta.is_nan() || eta > BACKWARD_ERROR_BOUND {
                        self.fail(format!("backward error {eta:e}"));
                    }
                }
            }
        }
    }
}

/// Ends an op's timing, first stretching it to `slowdown` times its
/// measured length (1.0 adds nothing) with arithmetic, which keeps the
/// core busy as a slower op would. Sleeping would let the core idle,
/// and a pause-instruction spin loop lets the hypervisor take the core
/// away; either way the probe after the op would run on a colder core.
fn finish(t0: Instant, slowdown: f64) -> Duration {
    let target = t0.elapsed().mul_f64(slowdown);
    let mut x = 1u64;
    while t0.elapsed() < target {
        for _ in 0..1000 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
    }
    t0.elapsed()
}

fn phases(st: &FactorStats, all: bool) -> Vec<(&'static str, Duration)> {
    let mut p = vec![("numeric", st.numeric_time)];
    if all {
        p.insert(0, ("reorder", st.reorder_time));
        p.insert(1, ("symbolic", st.symbolic_time));
        p.insert(2, ("preprocess", st.preprocess_time));
    }
    p
}

/// `oneshot`: `Solver::builder().build(A)` on fresh values, then `solve`.
fn op_oneshot(
    case: usize,
    v: &Variant,
    slowdown: f64,
    tr: Option<&mut Traced>,
    id: usize,
) -> OpRecord {
    let t0 = Instant::now();
    let built = Solver::builder().build(&v.a);
    let build_d = t0.elapsed();
    let ts = Instant::now();
    let x = built.as_ref().ok().map(|s| s.solve(&v.rhs[0]));
    let solve_d = ts.elapsed();
    let d = finish(t0, slowdown);
    let mut rec = OpRecord::new(case, d.as_secs_f64());
    let solver = match built {
        Ok(s) => s,
        Err(e) => {
            rec.fail(format!("build: {e}"));
            return rec;
        }
    };
    rec.check(v, x.expect("built").map(|x| vec![x]));
    let ph = solver.stats().phases;
    if ph != pangulu_metrics::PhaseCounters::first_factor() {
        rec.fail(format!("phase counters {ph:?}: expected one run of each phase"));
    }
    if let Some(t) = tr {
        let op = t.tr.record(id, None, "op", t0, d);
        let build = t.tr.record(id, Some(op), "build", t0, build_d);
        rec.attributed = t.tr.stat_spans(id, build, t0, &phases(solver.stats(), true));
        t.tr.record(id, Some(op), "solve", ts, solve_d);
        rec.attributed += solve_d.as_secs_f64();
        t.layers.add("reorder.runs", ph.reorder_runs as f64);
        trace::analysis(t, id, Some(op), &v.a, &solver, 1, build_d.as_secs_f64());
        trace::numeric(&mut t.layers, &solver);
        trace::solve(t, id, Some(op), &solver, &v.rhs, solve_d.as_secs_f64());
    }
    rec
}

/// `transient`: `refactor(A_t)` on the cached analysis, then `solve`.
fn op_transient(
    case: usize,
    s: &mut Solver,
    v: &Variant,
    slowdown: f64,
    tr: Option<&mut Traced>,
    id: usize,
) -> OpRecord {
    let before = s.stats().phases;
    let t0 = Instant::now();
    let refactored = s.refactor(&v.a);
    let refactor_d = t0.elapsed();
    let ts = Instant::now();
    let x = refactored.as_ref().ok().map(|_| s.solve(&v.rhs[0]));
    let solve_d = ts.elapsed();
    let d = finish(t0, slowdown);
    let mut rec = OpRecord::new(case, d.as_secs_f64());
    if let Err(e) = refactored {
        rec.fail(format!("refactor: {e}"));
        return rec;
    }
    rec.check(v, x.expect("refactored").map(|x| vec![x]));
    let delta = s.stats().phases.since(&before);
    let expected = pangulu_metrics::PhaseCounters {
        numeric_runs: 1,
        analysis_reuses: 1,
        ..Default::default()
    };
    if delta != expected {
        rec.fail(format!("phase counters moved by {delta:?}: expected a numeric-only refactor"));
    }
    if let Some(t) = tr {
        let op = t.tr.record(id, None, "op", t0, d);
        let refactor = t.tr.record(id, Some(op), "refactor", t0, refactor_d);
        rec.attributed = t.tr.stat_spans(id, refactor, t0, &phases(s.stats(), false));
        t.tr.record(id, Some(op), "solve", ts, solve_d);
        rec.attributed += solve_d.as_secs_f64();
        t.layers.add("reorder.runs", delta.reorder_runs as f64);
        trace::numeric(&mut t.layers, s);
        trace::solve(t, id, Some(op), s, &v.rhs, solve_d.as_secs_f64());
    }
    rec
}

/// `solve_many`: one `solve_multi` on a block of right-hand sides.
fn op_solve_many(
    case: usize,
    s: &Solver,
    v: &Variant,
    slowdown: f64,
    tr: Option<&mut Traced>,
    id: usize,
) -> OpRecord {
    let before = s.stats().phases;
    let t0 = Instant::now();
    let xs = s.solve_multi(&v.rhs);
    let solve_d = t0.elapsed();
    let d = finish(t0, slowdown);
    let mut rec = OpRecord::new(case, d.as_secs_f64());
    rec.check(v, xs);
    let delta = s.stats().phases.since(&before);
    if delta != pangulu_metrics::PhaseCounters::default() {
        rec.fail(format!("phase counters moved by {delta:?}: a solve must not factor"));
    }
    if let Some(t) = tr {
        let op = t.tr.record(id, None, "op", t0, d);
        t.tr.record(id, Some(op), "solve", t0, solve_d);
        rec.attributed = solve_d.as_secs_f64();
        t.layers.add("reorder.runs", delta.reorder_runs as f64);
        trace::solve(t, id, Some(op), s, &v.rhs, solve_d.as_secs_f64());
    }
    rec
}

/// Median (mean of the two middle values for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of the middle half of `v` (a quarter of the samples, rounded
/// down, dropped from each end).
fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Op latencies of matrix `case` in one arm, at the reference host
/// speed with `at_ref`, otherwise as measured.
fn case_secs(ops: &[OpRecord], case: usize, arm: Arm, at_ref: bool) -> Vec<f64> {
    ops.iter().filter(|o| o.case == case && o.arm == arm).map(|o| o.latency(at_ref)).collect()
}

/// The latency metrics of one arm's ops.
struct Latency {
    /// Ops per second at each matrix's interquartile mean latency: the
    /// number of matrices over the sum of those means. A burst of
    /// interference from other load on the host moves it only when the
    /// burst covers a quarter of a matrix's ops, and unlike a median it
    /// averages over the middle half of the structures the run saw.
    ops_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    /// The percentile `tail_ms` reports.
    tail_pct: f64,
    /// Ops in the arm.
    n: usize,
}

impl Latency {
    /// With `at_ref`, each op's latency is taken at the reference host
    /// speed; otherwise as measured.
    fn of(ops: &[OpRecord], arm: Arm, cases: usize, at_ref: bool) -> Self {
        let secs: Vec<f64> =
            ops.iter().filter(|o| o.arm == arm).map(|o| o.latency(at_ref)).collect();
        let case_means: f64 =
            (0..cases).map(|k| interquartile_mean(&case_secs(ops, k, arm, at_ref))).sum();
        let (tail_s, tail_pct) = tail(&secs);
        Latency {
            ops_per_s: cases as f64 / case_means,
            p50_ms: median(&secs) * 1e3,
            tail_ms: tail_s * 1e3,
            tail_pct,
            n: secs.len(),
        }
    }
}

/// The highest percentile that still has [`TAIL_SAMPLES`] samples beyond
/// it: `(value, percentile)`. With too few samples, the maximum.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_SAMPLES {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    let i = n - TAIL_SAMPLES - 1;
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A metric line for the reader: name, value, unit and kind — `exact`
/// for deterministic counts, `timing` for anything measured in time.
fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    let kind = match (name, unit) {
        (_, "count" | "B" | "flop") => "exact",
        ("pass_frac", _) => "check",
        (_, "digits") => "accuracy",
        (_, "MiB") => "memory",
        _ => "timing",
    };
    println!("metric {name:<28} {value:>16.6} {unit:<8} {kind}{note}");
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    // One timeline holds the set-up steps and then the ops.
    let mut tl = Timeline::new();
    let mut setups: Vec<Steps> = Vec::new();
    let mut fixture = None;
    let measured = |st: &Steps| st.iter().map(|s| s.1).sum::<f64>();
    while setups.len() < SETUP_MIN_REPS
        || setups.iter().map(measured).sum::<f64>() < SETUP_MIN_SECONDS
    {
        drop(fixture.take());
        let (fx, steps) = set_up(w, args.seed, &mut tl)?;
        fixture = Some(fx);
        setups.push(steps);
    }
    let mut fx = fixture.expect("set-up ran");
    let after_setup: Vec<_> = fx.solvers.iter().map(|s| s.stats().phases).collect();

    let mut traced = args.trace.then(|| Traced { tr: Tracer::new(), layers: Layers::default() });
    if let Some(t) = traced.as_mut() {
        // The steady-state workloads analyse in set-up only: record those
        // analyses (and, for solve_many, the only numeric runs) here,
        // outside every timing.
        for (k, s) in fx.solvers.iter().enumerate() {
            let a = &fx.cases[k].variants[0].a;
            trace::analysis(t, trace::SETUP_OP, None, a, s, w.ranks(), fx.build_s[k]);
            if w == Workload::SolveMany {
                trace::numeric(&mut t.layers, s);
            }
        }
    }

    let mut ops: Vec<OpRecord> = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        // A traced run gives each pair of passes the same variants, so
        // both arms run every variant they see.
        let vi = if args.trace { passes / 2 } else { passes } % VARIANTS;
        for k in 0..fx.cases.len() {
            // Checkerboard: each matrix alternates arms from pass to pass,
            // and every pass holds ops of both.
            let arm = if args.trace && (k + passes) % 2 == 1 { Arm::Traced } else { Arm::Plain };
            let v = &fx.cases[k].variants[vi];
            let tr = if arm == Arm::Traced { traced.as_mut() } else { None };
            let id = ops.len();
            let interval = tl.probe();
            let mut rec = match w {
                Workload::OneShot => op_oneshot(k, v, args.slowdown, tr, id),
                Workload::Transient => {
                    op_transient(k, &mut fx.solvers[k], v, args.slowdown, tr, id)
                }
                Workload::SolveMany => op_solve_many(k, &fx.solvers[k], v, args.slowdown, tr, id),
            };
            if let Some(why) = &rec.failure {
                eprintln!("op {id} ({}) failed: {why}", fx.cases[k].name);
            }
            rec.arm = arm;
            rec.interval = interval;
            ops.push(rec);
        }
        passes += 1;
    }
    tl.probe();
    let loop_s = start.elapsed().as_secs_f64();
    for op in ops.iter_mut() {
        op.speed = tl.speed(op.interval);
    }

    // Run-level phase check: after set-up, the steady-state workloads must
    // never reorder, re-run symbolic or preprocess, and transient must
    // reuse the analysis once per op.
    let mut run_failures = Vec::new();
    if w != Workload::OneShot {
        let mut total = pangulu_metrics::PhaseCounters::default();
        for (s, before) in fx.solvers.iter().zip(&after_setup) {
            let d = s.stats().phases.since(before);
            total.reorder_runs += d.reorder_runs;
            total.symbolic_runs += d.symbolic_runs;
            total.preprocess_runs += d.preprocess_runs;
            total.analysis_reuses += d.analysis_reuses;
        }
        let reuses = if w == Workload::Transient { ops.len() as u64 } else { 0 };
        if total.reorder_runs + total.symbolic_runs + total.preprocess_runs != 0
            || total.analysis_reuses != reuses
        {
            run_failures
                .push(format!("run phase counters {total:?}: expected {reuses} reuses only"));
        }
    }
    for why in &run_failures {
        eprintln!("run check failed: {why}");
    }

    let attempted = ops.len();
    let failed = ops.iter().filter(|o| o.failure.is_some()).count();
    let correct = failed == 0 && run_failures.is_empty();
    let raw = Latency::of(&ops, Arm::Plain, fx.cases.len(), false);
    let plain = Latency::of(&ops, Arm::Plain, fx.cases.len(), true);
    let raw_setup_s = median(&setups.iter().map(measured).collect::<Vec<f64>>());
    let at_ref = |st: &Steps| st.iter().map(|&(i, secs)| secs * tl.speed(i)).sum::<f64>();
    let setup_s = median(&setups.iter().map(at_ref).collect::<Vec<f64>>());
    let digits = ops
        .iter()
        .filter(|o| o.failure.is_none())
        .map(|o| -o.eta.log10())
        .fold(f64::INFINITY, f64::min);
    let digits = if digits.is_finite() { digits } else { 0.0 };
    let fail_frac = failed as f64 / attempted as f64;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names: Vec<String> = fx.cases.iter().map(|c| format!("\"{}\"", c.name)).collect();
    println!(
        "facts {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"ranks\":{},\"corpus_scale\":{},\"corpus\":[{}],\"transport\":\"channel\",\"precision\":\"f64\",\"seconds\":{},\"trace\":{},\"passes\":{},\"loop_s\":{:.3},\"slowdown\":{},\"probes\":{},\"probe_ms\":{:.4},\"probe_ref_ms\":{}}}",
        w.name(),
        args.seed,
        nproc,
        w.ranks(),
        corpus::SCALE,
        names.join(","),
        args.seconds,
        u8::from(args.trace),
        passes,
        loop_s,
        args.slowdown,
        tl.len(),
        tl.median_s() * 1e3,
        probe::REF_S * 1e3
    );
    println!("check attempted={attempted} failed={failed} fail_frac={fail_frac} correct={correct}");
    for (k, case) in fx.cases.iter().enumerate() {
        let t = case_secs(&ops, k, Arm::Plain, false);
        let (tail_s, pct) = tail(&t);
        println!(
            "case {:<14} n={:<5} best_ms={:.3} p50_ms={:.3} p{pct:.0}_ms={:.3}",
            case.name,
            t.len(),
            t.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            median(&t) * 1e3,
            tail_s * 1e3
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    // Timings carry their value as measured on this host beside them.
    let e2e = [
        (
            "ops_per_s",
            plain.ops_per_s,
            "1/s",
            format!("  (n={} ops; measured {:.6})", plain.n, raw.ops_per_s),
        ),
        (
            "op_p50_ms",
            plain.p50_ms,
            "ms",
            format!("  (n={} ops; measured {:.6})", plain.n, raw.p50_ms),
        ),
        (
            "op_tail_ms",
            plain.tail_ms,
            "ms",
            format!(
                "  (p{:.1}, {TAIL_SAMPLES} of n={} ops beyond; measured {:.6})",
                plain.tail_pct, plain.n, raw.tail_ms
            ),
        ),
        (
            "setup_s",
            setup_s,
            "s",
            format!("  (median of {} set-ups; measured {raw_setup_s:.6})", setups.len()),
        ),
        ("pass_frac", 1.0 - fail_frac, "ratio", format!("  (fail_frac={fail_frac})")),
        ("accuracy_digits_min", digits, "digits", String::new()),
        ("peak_rss_mib", peak_rss_mib(), "MiB", String::new()),
    ];
    for (name, value, unit, note) in &e2e {
        print_metric(name, *value, unit, note);
    }
    if let Some(t) = traced {
        let traced_ops: Vec<&OpRecord> = ops.iter().filter(|o| o.arm == Arm::Traced).collect();
        let overhead = Latency::of(&ops, Arm::Traced, fx.cases.len(), false).p50_ms / raw.p50_ms;
        let total: f64 = traced_ops.iter().map(|o| o.secs).sum();
        let unattributed = traced_ops.iter().map(|o| o.secs - o.attributed).sum::<f64>() / total;
        let path = std::path::PathBuf::from(format!(
            ".perfbench_out/trace-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        t.tr.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans {}", path.display());
        metrics = t.layers.finish(traced_ops.len() as f64, overhead, unattributed);
        for (name, value, unit) in &metrics {
            print_metric(name, *value, unit, "");
        }
    } else {
        metrics.extend(e2e.iter().map(|(n, v, u, _)| (*n, *v, *u)));
    }

    // JSON has no infinities or NaNs: such a value is a defect, reported
    // as an incorrect run.
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = correct && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
