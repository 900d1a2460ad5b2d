//! The traced run's per-layer metrics, computed from the mirror's spans
//! and counts, the engine wrappers and the process clocks.
//!
//! Every workload reports the full set. A layer a workload never calls
//! (the network layers under `ProxyEval`, the supervisor outside the
//! stream workload, weight layers past the model's last) reads 0.

use crate::mirror::Counts;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wrappers::{EvalCounters, StoreLog};

/// Weight layers the per-layer metrics cover (`l0`..`l4`).
pub const LAYERS: usize = 5;

/// Seconds spent in each set-up phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// `sgd_train` (pre-training and retraining).
    pub train_s: f64,
    /// `StoredLayer::store` of every layer.
    pub encode_s: f64,
    /// `EvalContext::new`.
    pub context_s: f64,
}

/// The traced engine run next to its untraced twin.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineRun {
    /// Trials the traced run completed.
    pub trials: u64,
    /// Process CPU seconds across the traced run call.
    pub cpu_s: f64,
    /// Host seconds of the traced run call.
    pub wall_s: f64,
    /// Host seconds of the same call untraced.
    pub untraced_wall_s: f64,
}

/// What the supervisor's streams spent, one entry per stream.
#[derive(Debug, Default, Clone)]
pub struct ServerTimes {
    /// `Supervisor::submit` call, in microseconds.
    pub submit_us: Vec<f64>,
    /// Submit to the stream's first checkpoint write, in seconds.
    pub queue_wait_s: Vec<f64>,
    /// First checkpoint write to `Done`, in seconds.
    pub run_s: Vec<f64>,
}

/// Inputs of the per-layer metrics.
pub struct Inputs<'a> {
    pub tracer: &'a Tracer,
    pub counts: &'a Counts,
    /// Per weight layer: whether its GEMM takes the sparse route
    /// (empty when no network is evaluated).
    pub sparse_routes: &'a [bool],
    pub phases: Phases,
    pub eval: &'a EvalCounters,
    pub engine: EngineRun,
    pub store: &'a StoreLog,
    pub server: &'a ServerTimes,
    /// Cells of every scheme the DSE mirror stored (0 otherwise).
    pub cells_total: u64,
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn p90(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, 90.0)
    }
}

/// Adds every per-layer metric to `report`.
pub fn report(r: &mut Report, x: &Inputs) {
    let c = x.counts;
    let t = x.tracer;
    let trials = c.trials;
    let us = |name: &str, layer: Option<usize>| per(t.total_ns(name, layer) as f64 / 1e3, trials);
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    for i in 0..LAYERS {
        r.metric(
            format!("encoding.deltas_us.l{i}"),
            us("encoding.deltas", Some(i)),
            "us",
        );
        r.metric(
            format!("encoding.cell_faults.l{i}"),
            per(at(&c.cell_faults, i) as f64, trials),
            "count",
        );
        r.metric(
            format!("encoding.deltas.l{i}"),
            per(at(&c.deltas, i) as f64, trials),
            "count",
        );
    }
    r.metric(
        "ecc.corrected",
        per(c.ecc_corrected as f64, trials),
        "count",
    );
    r.metric(
        "ecc.uncorrectable",
        per(c.ecc_uncorrectable as f64, trials),
        "count",
    );
    r.metric(
        "dnn.sparse.with_deltas_us",
        us("dnn.sparse.with_deltas", None),
        "us",
    );
    r.metric(
        "dnn.sparse.with_deltas_bytes",
        per(c.with_deltas_bytes as f64, trials),
        "bytes",
    );
    r.metric("dnn.prefix.patch_us", us("dnn.prefix.patch", None), "us");
    r.metric(
        "dnn.prefix.patch_bytes",
        per(c.patch_bytes as f64, trials),
        "bytes",
    );
    r.metric(
        "dnn.prefix.dirty_rows",
        per(c.dirty_rows as f64, trials),
        "count",
    );
    let network = !x.sparse_routes.is_empty();
    r.metric(
        "dnn.prefix.skip_rate",
        if network { per(c.skip, trials) } else { 0.0 },
        "ratio",
    );
    for i in 0..LAYERS {
        let ns = t.total_ns("dnn.gemm", Some(i));
        let flops = c.gemm_flops.get(i).copied().unwrap_or(0.0);
        r.metric(format!("dnn.gemm.us.l{i}"), us("dnn.gemm", Some(i)), "us");
        r.metric(
            format!("dnn.gemm.calls.l{i}"),
            per(at(&c.gemm_calls, i) as f64, trials),
            "count",
        );
        r.metric(
            format!("dnn.gemm.gflops.l{i}"),
            if ns == 0 { 0.0 } else { flops / ns as f64 },
            "GFLOP/s",
        );
        r.metric(
            format!("dnn.gemm.bytes.l{i}"),
            per(at(&c.gemm_bytes, i) as f64, trials),
            "bytes",
        );
        let route = x.sparse_routes.get(i).copied().unwrap_or(false);
        r.metric(
            format!("dnn.gemm.sparse_route.l{i}"),
            f64::from(u8::from(route)),
            "flag",
        );
    }
    r.metric("dnn.layer.other_us", us("dnn.layer.other", None), "us");
    r.metric(
        "faultsim.evaluate.argmax_us",
        us("faultsim.evaluate.argmax", None),
        "us",
    );
    r.metric(
        "dnn.prefix.build_s",
        t.total_ns("dnn.prefix.build", None) as f64 / 1e9,
        "s",
    );
    r.metric("setup.train_s", x.phases.train_s, "s");
    r.metric("setup.encode_s", x.phases.encode_s, "s");
    r.metric("setup.context_s", x.phases.context_s, "s");
    let proxy_calls = t.count("faultsim.evaluate.proxy", None) as u64;
    r.metric(
        "faultsim.evaluate.proxy_us",
        per(
            t.total_ns("faultsim.evaluate.proxy", None) as f64 / 1e3,
            proxy_calls,
        ),
        "us",
    );
    r.metric(
        "encoding.store_s",
        t.total_ns("encoding.store", None) as f64 / 1e9,
        "s",
    );
    r.metric(
        "encoding.store_calls",
        t.count("encoding.store", None) as f64,
        "count",
    );
    r.metric(
        "encoding.prepare_s",
        t.total_ns("encoding.prepare", None) as f64 / 1e9,
        "s",
    );
    r.metric("encoding.cells_total", x.cells_total as f64, "count");
    r.metric("faultsim.evaluate.eval_us", x.eval.mean_us(), "us");
    r.metric("faultsim.evaluate.calls", x.eval.calls() as f64, "count");
    let e = x.engine;
    let engine_cpu_per_trial = per(e.cpu_s, e.trials);
    let mirror_cpu_per_trial = per(c.cpu_s, trials);
    r.metric("faultsim.engine.cpu_s_per_trial", engine_cpu_per_trial, "s");
    r.metric(
        "faultsim.engine.cpu_overhead_ratio",
        if mirror_cpu_per_trial > 0.0 {
            engine_cpu_per_trial / mirror_cpu_per_trial
        } else {
            0.0
        },
        "ratio",
    );
    r.metric(
        "faultsim.engine.cpu_utilization",
        if e.wall_s > 0.0 {
            e.cpu_s / (e.wall_s * crate::sys::nproc() as f64)
        } else {
            0.0
        },
        "ratio",
    );
    let write_s: Vec<f64> = x.store.writes.iter().map(|w| w.0).collect();
    let write_ms: Vec<f64> = write_s.iter().map(|s| s * 1e3).collect();
    let write_bytes: usize = x.store.writes.iter().map(|w| w.1).sum();
    r.metric("faultsim.checkpoint.writes", write_s.len() as f64, "count");
    r.metric(
        "faultsim.checkpoint.bytes_per_write",
        per(write_bytes as f64, write_s.len() as u64),
        "bytes",
    );
    r.metric("faultsim.checkpoint.write_ms_p50", p50(&write_ms), "ms");
    r.metric("faultsim.checkpoint.write_ms_p90", p90(&write_ms), "ms");
    r.metric(
        "faultsim.checkpoint.write_share",
        if e.wall_s > 0.0 {
            write_s.iter().sum::<f64>() / e.wall_s
        } else {
            0.0
        },
        "ratio",
    );
    let s = x.server;
    r.metric("server.submit_us_p50", p50(&s.submit_us), "us");
    r.metric("server.queue_wait_s_p50", p50(&s.queue_wait_s), "s");
    r.metric("server.queue_wait_s_p90", p90(&s.queue_wait_s), "s");
    r.metric("server.run_s_p50", p50(&s.run_s), "s");
    r.metric(
        "alloc.count_per_trial",
        per(c.allocs as f64, trials),
        "count",
    );
    r.metric(
        "alloc.bytes_per_trial",
        per(c.alloc_bytes as f64, trials),
        "bytes",
    );
    r.metric("trace.coverage", t.coverage("mirror.trial"), "ratio");
    r.metric(
        "trace.overhead_ratio",
        if e.untraced_wall_s > 0.0 {
            e.wall_s / e.untraced_wall_s
        } else {
            0.0
        },
        "ratio",
    );
}
