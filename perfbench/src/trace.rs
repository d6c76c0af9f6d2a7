//! The traced run: spans around calls into each layer's public
//! functions, recorded from the benchmark's own code, plus the counters
//! the solver already exposes (`FactorStats`, `PhaseCounters`,
//! `RunReport`/`NumericStats`, `kernel_plan_stats()`).
//!
//! Replayed calls re-run a layer's public function on the op's own
//! inputs to time it in isolation; they happen after the op's span has
//! closed, so they never count towards op time. Spans stay in memory and
//! are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use pangulu_comm::ProcessGrid;
use pangulu_core::task::{TaskGraph, TaskPriorities};
use pangulu_core::trisolve::{backward_substitute, forward_substitute};
use pangulu_core::{BlockMatrix, OwnerMap, Solver};
use pangulu_metrics::CLASS_LABELS;
use pangulu_reorder::{amd, mc64, nd, rcm};
use pangulu_sparse::ops::{ensure_diagonal, symmetrize};
use pangulu_sparse::permute::{permute, permute_symmetric, scale};
use pangulu_sparse::{CscMatrix, Permutation};
use pangulu_symbolic::counts::fill_counts_symmetric;
use pangulu_symbolic::symbolic_fill;

/// Op id of spans recorded during set-up; written out as `"op": null`.
pub const SETUP_OP: usize = usize::MAX;

/// One recorded interval. `parent` is the id of the span that caused
/// it; spans of one op share `op`.
struct Span {
    id: usize,
    parent: Option<usize>,
    op: usize,
    name: &'static str,
    start_ns: u128,
    dur_ns: u128,
    /// `true` for a phase interval reported by the solver's own
    /// `FactorStats` rather than timed here.
    from_stats: bool,
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records a span that ran from `start` for `dur`; returns its id.
    pub fn record(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.push(op, parent, name, start, dur, false)
    }

    fn push(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        dur: Duration,
        from_stats: bool,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            dur_ns: dur.as_nanos(),
            from_stats,
        });
        id
    }

    /// Runs `f` as a span and returns its result with the elapsed seconds.
    pub fn time<T>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let dur = start.elapsed();
        self.record(op, parent, name, start, dur);
        (out, dur.as_secs_f64())
    }

    /// Records phase times the solver reported in its `FactorStats` as
    /// child spans of `parent`, laid end to end from `start` in the order
    /// the pipeline runs them. Returns their total seconds.
    pub fn stat_spans(
        &mut self,
        op: usize,
        parent: usize,
        start: Instant,
        phases: &[(&'static str, Duration)],
    ) -> f64 {
        let mut at = start;
        for &(name, dur) in phases {
            self.push(op, Some(parent), name, at, dur, true);
            at += dur;
        }
        phases.iter().map(|p| p.1.as_secs_f64()).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == SETUP_OP { "null".to_string() } else { s.op.to_string() };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"from_stats\":{}}}",
                s.id, parent, op, s.name, s.start_ns, s.dur_ns, s.from_stats
            )?;
        }
        out.flush()
    }
}

/// Running sums of per-layer observations; each metric is reported as
/// the mean of its observations unless [`Layers::finish`] says otherwise.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |e| e.0)
    }

    fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |e| if e.1 == 0 { 0.0 } else { e.0 / e.1 as f64 })
    }

    /// The per-layer metrics as `(name, value, unit)`, in the order
    /// `BENCHMARK.json` lists them. `ops` is the count of traced ops;
    /// `overhead` and `unattributed` come from the op loop.
    pub fn finish(
        &self,
        ops: f64,
        overhead: f64,
        unattributed: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let m = |name: &'static str, unit: &'static str| (name, self.mean(name), unit);
        vec![
            m("reorder.s", "s"),
            ("reorder.share", ratio(self.sum("reorder.s"), self.sum("build.s")), "ratio"),
            m("reorder.mc64_s", "s"),
            m("reorder.rcm_s", "s"),
            m("reorder.amd_s", "s"),
            m("reorder.nd_s", "s"),
            m("reorder.fill_count_s", "s"),
            ("reorder.runs", ratio(self.sum("reorder.runs"), ops), "count"),
            m("symbolic.s", "s"),
            m("symbolic.nnz_lu", "count"),
            m("symbolic.flops", "flop"),
            m("preprocess.s", "s"),
            m("preprocess.blocks_s", "s"),
            m("preprocess.task_graph_s", "s"),
            m("preprocess.owners_s", "s"),
            m("preprocess.priorities_s", "s"),
            m("preprocess.tasks", "count"),
            m("preprocess.blocks", "count"),
            m("numeric.s", "s"),
            (
                "numeric.gflops",
                ratio(self.sum("numeric.flops"), self.sum("numeric.s")) * 1e-9,
                "GFLOP/s",
            ),
            m("numeric.busy_s", "s"),
            m("numeric.sync_wait_s", "s"),
            (
                "numeric.sync_frac",
                ratio(self.sum("numeric.sync_wait_s"), self.sum("numeric.s")),
                "ratio",
            ),
            m("numeric.perturbed_pivots", "count"),
            m("kernels.getrf_calls", "count"),
            m("kernels.gessm_calls", "count"),
            m("kernels.tstrf_calls", "count"),
            m("kernels.ssssm_calls", "count"),
            m("kernels.getrf_s", "s"),
            m("kernels.trsm_s", "s"),
            m("kernels.ssssm_s", "s"),
            m("kernels.planned_calls", "count"),
            m("kernels.plan_bytes", "B"),
            m("kernels.flops", "flop"),
            m("comm.msgs", "count"),
            m("comm.bytes", "B"),
            m("comm.payload_allocs", "count"),
            m("comm.bytes_copied", "B"),
            m("comm.pattern_cache_hits", "count"),
            m("solve.s", "s"),
            m("solve.seq_trisolve_s", "s"),
            m("solve.permute_s", "s"),
            (
                "solve.dist_ratio",
                ratio(self.mean("solve.s"), self.mean("solve.seq_trisolve_s")),
                "ratio",
            ),
            ("trace.overhead", overhead, "ratio"),
            ("trace.unattributed_frac", unattributed, "ratio"),
        ]
    }
}

/// Tracing state of a `--trace 1` run: the spans and the per-layer sums.
pub struct Traced {
    pub tr: Tracer,
    pub layers: Layers,
}

/// A fill-reducing ordering's public entry point.
type Ordering = fn(&CscMatrix) -> pangulu_sparse::Result<Permutation>;

/// nnz(L+U) of a candidate ordering by the counts-only symbolic pass,
/// as the Auto ordering measures it.
fn fill_count(sym: &CscMatrix, perm: &Permutation) -> usize {
    let permuted = permute_symmetric(sym, perm).expect("square pattern");
    let with_diag = ensure_diagonal(&permuted).expect("square pattern");
    fill_counts_symmetric(&with_diag).expect("symmetric pattern").nnz_lu()
}

/// Records one analysis (reorder → symbolic → preprocess) that `solver`
/// ran on input `a` in `build_s` seconds: the solver's own phase times
/// and counts, then replays of each layer's public functions on the same
/// input, timed as spans under `parent`.
pub fn analysis(
    t: &mut Traced,
    op: usize,
    parent: Option<usize>,
    a: &CscMatrix,
    solver: &Solver,
    ranks: usize,
    build_s: f64,
) {
    let Traced { tr, layers } = t;
    let st = solver.stats();
    layers.add("build.s", build_s);
    layers.add("reorder.s", st.reorder_time.as_secs_f64());
    layers.add("symbolic.s", st.symbolic_time.as_secs_f64());
    layers.add("preprocess.s", st.preprocess_time.as_secs_f64());
    layers.add("preprocess.blocks", st.num_blocks as f64);
    let sym_stats = st.symbolic.expect("a built solver has symbolic stats");
    layers.add("symbolic.nnz_lu", sym_stats.nnz_lu as f64);
    layers.add("symbolic.flops", sym_stats.flops);

    // Reorder: MC64, then every Auto candidate and its fill count.
    let (m, s) = tr.time(op, parent, "reorder.mc64", || mc64::mc64(a).expect("matching"));
    layers.add("reorder.mc64_s", s);
    let scaled = scale(a, &m.row_scale, &m.col_scale).expect("scaling");
    let matched = permute(&scaled, &m.row_perm, &Permutation::identity(a.ncols())).expect("perm");
    let sym = symmetrize(&matched).expect("square");
    let mut fill_s = 0.0;
    let natural = Permutation::identity(sym.ncols());
    fill_s += tr.time(op, parent, "reorder.fill_count", || fill_count(&sym, &natural)).1;
    let orderings: [(&str, &str, Ordering); 3] = [
        ("reorder.rcm", "reorder.rcm_s", rcm::rcm_order),
        ("reorder.amd", "reorder.amd_s", amd::amd_order),
        ("reorder.nd", "reorder.nd_s", |s| nd::nested_dissection(s, nd::NdOptions::default())),
    ];
    for (name, metric, order) in orderings {
        let (perm, s) = tr.time(op, parent, name, || order(&sym).expect("ordering"));
        layers.add(metric, s);
        fill_s += tr.time(op, parent, "reorder.fill_count", || fill_count(&sym, &perm)).1;
    }
    layers.add("reorder.fill_count_s", fill_s);

    // Symbolic and preprocess on the solver's own reordered matrix.
    let reordered = &solver.reordering().matrix;
    let (fill, _) =
        tr.time(op, parent, "symbolic.fill", || symbolic_fill(reordered).expect("fill"));
    let (bm, s) = tr.time(op, parent, "preprocess.blocks", || {
        let filled = fill.filled_matrix(reordered).expect("filled pattern");
        BlockMatrix::from_filled(&filled, st.block_size).expect("blocking")
    });
    layers.add("preprocess.blocks_s", s);
    let (tg, s) = tr.time(op, parent, "preprocess.task_graph", || TaskGraph::build(&bm));
    layers.add("preprocess.task_graph_s", s);
    layers.add("preprocess.tasks", tg.num_tasks(bm.num_blocks()) as f64);
    let (_, s) = tr.time(op, parent, "preprocess.owners", || {
        OwnerMap::balanced(&bm, ProcessGrid::new(ranks), &tg)
    });
    layers.add("preprocess.owners_s", s);
    let (_, s) = tr.time(op, parent, "preprocess.priorities", || TaskPriorities::compute(&bm, &tg));
    layers.add("preprocess.priorities_s", s);
}

/// Records the counters of the solver's latest numeric run: wall and
/// per-rank busy time, kernel calls and time by class, plan memory and
/// the numeric phase's traffic.
pub fn numeric(layers: &mut Layers, solver: &Solver) {
    let st = solver.stats();
    let wall = st.numeric_time.as_secs_f64();
    let flops = st.symbolic.map_or(0.0, |s| s.flops);
    layers.add("numeric.s", wall);
    layers.add("numeric.flops", flops);
    layers.add("numeric.perturbed_pivots", st.perturbed_pivots as f64);
    let plans = solver.kernel_plan_stats();
    layers.add("kernels.plan_bytes", plans.map_or(0.0, |p| p.bytes as f64));

    // Per class: calls, then seconds (GESSM and TSTRF together as trsm).
    let (busy, calls, secs, kernel_flops, planned) = if let Some(rep) = &st.report {
        let k = rep.total_kernels();
        let mut ns = [0u64; 4];
        for (class, _, slot) in k.entries() {
            let c = CLASS_LABELS.iter().position(|&l| l == class).expect("known kernel class");
            ns[c] += slot.nanos;
        }
        let secs = [ns[0] as f64 * 1e-9, (ns[1] + ns[2]) as f64 * 1e-9, ns[3] as f64 * 1e-9];
        let mem = rep.total_mem();
        layers.add("comm.msgs", rep.total_messages() as f64);
        layers.add("comm.bytes", rep.total_bytes() as f64);
        layers.add("comm.payload_allocs", mem.payload_allocs as f64);
        layers.add("comm.bytes_copied", mem.bytes_copied as f64);
        layers.add("comm.pattern_cache_hits", mem.pattern_cache_hits as f64);
        let busy = rep.busy_seconds() / rep.ranks.max(1) as f64;
        (busy, k.calls_by_class(), secs, k.total_flops(), mem.planned_calls as f64)
    } else {
        let ns = st.numeric.as_ref().expect("a single-rank run has numeric stats");
        for name in [
            "comm.msgs",
            "comm.bytes",
            "comm.payload_allocs",
            "comm.bytes_copied",
            "comm.pattern_cache_hits",
        ] {
            layers.add(name, 0.0);
        }
        let c = ns.kernel_counts;
        let secs =
            [ns.getrf_time.as_secs_f64(), ns.trsm_time.as_secs_f64(), ns.ssssm_time.as_secs_f64()];
        // Each plan a single-rank solver builds serves one call per
        // factorisation.
        let planned = plans.map_or(0.0, |p| p.builds as f64);
        (ns.total_time().as_secs_f64(), c.map(|v| v as u64), secs, ns.flops, planned)
    };
    layers.add("numeric.busy_s", busy);
    layers.add("numeric.sync_wait_s", (wall - busy).max(0.0));
    for (name, v) in [
        ("kernels.getrf_calls", calls[0]),
        ("kernels.gessm_calls", calls[1]),
        ("kernels.tstrf_calls", calls[2]),
        ("kernels.ssssm_calls", calls[3]),
    ] {
        layers.add(name, v as f64);
    }
    layers.add("kernels.getrf_s", secs[0]);
    layers.add("kernels.trsm_s", secs[1]);
    layers.add("kernels.ssssm_s", secs[2]);
    layers.add("kernels.flops", kernel_flops);
    layers.add("kernels.planned_calls", planned);
}

/// Records `solve_s` seconds spent solving `rhs.len()` right-hand sides,
/// then replays the solve's two halves on the solver's own factors: the
/// scaling/permutation transforms and the sequential triangular
/// substitution.
pub fn solve(
    t: &mut Traced,
    op: usize,
    parent: Option<usize>,
    solver: &Solver,
    rhs: &[Vec<f64>],
    solve_s: f64,
) {
    let Traced { tr, layers } = t;
    let per = 1.0 / rhs.len() as f64;
    layers.add("solve.s", solve_s * per);
    let r = solver.reordering();
    let (mut permute_s, mut tri_s) = (0.0, 0.0);
    for b in rhs {
        let (mut z, s) = tr.time(op, parent, "solve.permute", || {
            let scaled: Vec<f64> = b.iter().zip(&r.row_scale).map(|(v, d)| v * d).collect();
            r.row_perm.apply_vec(&scaled)
        });
        permute_s += s;
        tri_s += tr
            .time(op, parent, "solve.trisolve", || {
                forward_substitute(solver.factored(), &mut z);
                backward_substitute(solver.factored(), &mut z);
            })
            .1;
        let (_, s) = tr.time(op, parent, "solve.permute", || {
            let y = r.col_perm.apply_inv_vec(&z);
            y.iter().zip(&r.col_scale).map(|(v, d)| v * d).collect::<Vec<f64>>()
        });
        permute_s += s;
    }
    layers.add("solve.permute_s", permute_s * per);
    layers.add("solve.seq_trisolve_s", tri_s * per);
}
