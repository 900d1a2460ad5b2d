//! `lenet5_dse`: one `EvalContext::run_dse_controlled` call per
//! measurement over all 105 MLC-CTT candidate schemes, with early
//! stopping and checkpointing on, for the four full-size LeNet5 layers
//! (about 600k weights at the Table-2 sparsity) under `ProxyEval`.
//!
//! The sweep never runs a network: its cost is the 105 × 4 encodes and
//! clean decodes, fault sampling and delta extraction (with the full
//! re-decode fallback for faults that shift alignment), ECC decoding and
//! the early-stop verdicts. At a rate scale of 40 and an ITN bound of
//! 0.01 the sweep splits into passing and failing schemes.

use crate::mirror::DseMirror;
use crate::per_layer::{self, EngineRun, Phases, ServerTimes};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrappers::{EvalCounters, StoreLog, TimingEval, TimingStore};
use crate::{call_seed, repeat_calls, repeat_setup, sample_indices, span_file, sys, tail, Args};
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_envm::{CellTechnology, SenseAmp};
use maxnvm_faultsim::checkpoint::CampaignCheckpoint;
use maxnvm_faultsim::dse::{candidate_schemes, minimal_cells, DseConfig, DsePoint};
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CheckpointConfig, CheckpointStore, EarlyStop, EvalContext, FsStore,
    ProxyEval, RunControl, TrialOutcome,
};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trial budget per scheme.
const TRIALS: usize = 64;
const RATE_SCALE: f64 = 40.0;
const ITN_BOUND: f64 = 0.01;
/// Checkpoint cadence, in trials across the sweep.
const CHECKPOINT_EVERY: usize = 512;
/// Schemes the mirror replays (besides the winner) to check an
/// untraced run; a traced run replays every scheme.
const GATE_SCHEMES: usize = 3;

struct Model {
    layers: Vec<ClusteredLayer>,
    eval: Arc<ProxyEval>,
    ctx: EvalContext,
    phases: Phases,
}

fn build() -> Model {
    let spec = zoo::lenet5();
    let layers: Vec<ClusteredLayer> = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let m = l.sample_matrix(spec.paper.sparsity, 40 + i as u64, 1024, 1024);
            ClusteredLayer::from_matrix(&m, spec.paper.cluster_index_bits, 5)
        })
        .collect();
    let reference = layers.iter().map(ClusteredLayer::reconstruct).collect();
    let eval = Arc::new(ProxyEval::new(
        reference,
        spec.paper.classification_error,
        0.9,
    ));
    let t = Instant::now();
    let ctx = EvalContext::new(
        CellTechnology::MlcCtt,
        &SenseAmp::paper_default(),
        RATE_SCALE,
    )
    .expect("engine context");
    Model {
        layers,
        eval,
        ctx,
        phases: Phases {
            context_s: t.elapsed().as_secs_f64(),
            ..Phases::default()
        },
    }
}

fn early_stop(model: &Model) -> EarlyStop {
    EarlyStop::new(model.eval.baseline_error(), ITN_BOUND)
}

/// One sweep and what its final checkpoint recorded.
struct Sweep {
    points: Vec<DsePoint>,
    wall: f64,
    /// Trials the sweep ran, and how many of them panicked.
    ran: usize,
    failed: usize,
}

fn sweep(
    model: &Model,
    seed: u64,
    eval: &(dyn AccuracyEval + Sync),
    path: &Path,
    store: Arc<dyn CheckpointStore>,
) -> Sweep {
    let cfg = DseConfig {
        campaign: Campaign {
            trials: TRIALS,
            seed,
            rate_scale: RATE_SCALE,
        },
        itn_bound: ITN_BOUND,
    };
    // The final snapshot is kept so the trials that ran, failed ones
    // included, can be counted from it.
    let control = RunControl {
        early_stop: Some(early_stop(model)),
        checkpoint: Some(
            CheckpointConfig::new(path)
                .every(CHECKPOINT_EVERY)
                .keep_on_success()
                .with_store(store),
        ),
        ..RunControl::default()
    };
    let t = Instant::now();
    let points = model
        .ctx
        .run_dse_controlled(&model.layers, eval, &cfg, &control)
        .expect("lenet5 sweep");
    let wall = t.elapsed().as_secs_f64();
    let snapshot = CampaignCheckpoint::load(path).expect("the sweep's final checkpoint");
    std::fs::remove_file(path).expect("remove the sweep's checkpoint");
    let failed = snapshot
        .entries
        .iter()
        .filter(|(_, _, o)| matches!(o, TrialOutcome::Failed { .. }))
        .count();
    Sweep {
        points,
        wall,
        ran: snapshot.entries.len(),
        failed,
    }
}

/// Counts a sweep and checks that it split into passing and failing
/// schemes with a winner, and that its trials agree with its checkpoint.
fn check_sweep(report: &mut Report, s: &Sweep) {
    report.tally.ran(s.ran, s.failed);
    let completed: usize = s.points.iter().map(|p| p.trials_run).sum();
    report.check(s.ran == completed + s.failed, || {
        format!(
            "sweep checkpoint holds {} trials, points report {completed} + {} failed",
            s.ran, s.failed
        )
    });
    report.check(minimal_cells(&s.points).is_some(), || {
        "minimal_cells found no passing scheme".into()
    });
}

/// Replays schemes `schemes` of the sweep seeded `seed` and checks each
/// against the engine's point.
fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    mirror: &mut DseMirror,
    model: &Model,
    points: &[DsePoint],
    schemes: &[usize],
) {
    let fault_for = model.ctx.fault_for();
    for &s in schemes {
        let got = mirror.scheme(tracer, &fault_for, s);
        let want = &points[s];
        report.check(
            got.trials_run == want.trials_run
                && got.mean_error.to_bits() == want.mean_error.to_bits()
                && got.cells == want.cells,
            || {
                format!(
                    "scheme {s} ({}): mirror ran {} trials, mean {}, {} cells; \
                     engine {} trials, mean {}, {} cells",
                    want.scheme.label(),
                    got.trials_run,
                    got.mean_error,
                    got.cells,
                    want.trials_run,
                    want.mean_error,
                    want.cells
                )
            },
        );
    }
}

/// Runs the workload.
pub fn run(args: &Args, work: &Path) -> Report {
    if args.trace {
        return traced(args, work);
    }
    let (model, setup_s) = repeat_setup(build);
    let mut report = Report::default();
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let mut first = None;
    repeat_calls(args.seconds, 3, |i| {
        let seed = call_seed(args.seed, i);
        let path = work.join(format!("dse-{i}.ckpt"));
        let s = sweep(&model, seed, &*model.eval, &path, Arc::new(FsStore));
        check_sweep(&mut report, &s);
        let trials: usize = s.points.iter().map(|p| p.trials_run).sum();
        rates.push(trials as f64 / s.wall);
        walls.push(s.wall);
        first.get_or_insert((seed, s));
    });
    let (seed, s) = first.expect("at least one sweep");
    let schemes = candidate_schemes(model.ctx.tech());
    let es = early_stop(&model);
    let mut mirror = DseMirror::new(&model.layers, &model.eval, &schemes, TRIALS, seed, &es);
    let mut sample = sample_indices(args.seed, schemes.len(), GATE_SCHEMES);
    if let Some(w) = minimal_cells(&s.points) {
        sample.extend(s.points.iter().position(|p| p == w));
    }
    replay(
        &mut report,
        &mut Tracer::default(),
        &mut mirror,
        &model,
        &s.points,
        &sample,
    );
    let passing = s.points.iter().filter(|p| p.passes).count();
    println!(
        "lenet5_dse: {} sweeps; {passing} of {} schemes pass, winner {}; dse_verdict_s = {:.4}",
        walls.len(),
        s.points.len(),
        minimal_cells(&s.points).map_or("none".into(), |p| p.scheme.label()),
        median(&walls)
    );
    report.metric("trials_per_s", median(&rates), "1/s");
    report.metric("verdict_s", median(&walls), "s");
    report.metric("verdict_tail_s", tail(&walls), "s");
    report.metric("setup_s", setup_s, "s");
    report
}

fn traced(args: &Args, work: &Path) -> Report {
    let model = build();
    let mut report = Report::default();
    let seed = call_seed(args.seed, 0);
    let fs: Arc<dyn CheckpointStore> = Arc::new(FsStore);
    let plain = sweep(
        &model,
        seed,
        &*model.eval,
        &work.join("plain.ckpt"),
        fs.clone(),
    );
    check_sweep(&mut report, &plain);

    let counters = Arc::new(EvalCounters::default());
    let log = Arc::new(Mutex::new(StoreLog::default()));
    let eval = TimingEval::new(model.eval.clone(), counters.clone());
    let store = Arc::new(TimingStore::new(fs, log.clone()));
    let cpu = sys::process_cpu_s();
    let timed = sweep(&model, seed, &eval, &work.join("traced.ckpt"), store);
    let cpu_s = sys::process_cpu_s() - cpu;
    check_sweep(&mut report, &timed);
    report.check(timed.points == plain.points, || {
        "the traced sweep differs from the untraced one".into()
    });
    // Untraced again: the first call also warmed the process up, so the
    // overhead ratio compares two warm calls.
    let again = sweep(
        &model,
        seed,
        &*model.eval,
        &work.join("again.ckpt"),
        Arc::new(FsStore),
    );
    check_sweep(&mut report, &again);
    report.check(again.points == plain.points, || {
        "repeating the sweep changed its points".into()
    });

    let schemes = candidate_schemes(model.ctx.tech());
    let es = early_stop(&model);
    let mut mirror = DseMirror::new(&model.layers, &model.eval, &schemes, TRIALS, seed, &es);
    let mut tracer = Tracer::default();
    let all: Vec<usize> = (0..schemes.len()).collect();
    replay(
        &mut report,
        &mut tracer,
        &mut mirror,
        &model,
        &plain.points,
        &all,
    );
    let log = log.lock().expect("store log").clone();
    per_layer::report(
        &mut report,
        &per_layer::Inputs {
            tracer: &tracer,
            counts: &mirror.counts,
            sparse_routes: &[],
            phases: model.phases,
            eval: &counters,
            engine: EngineRun {
                trials: timed.points.iter().map(|p| p.trials_run as u64).sum(),
                cpu_s,
                wall_s: timed.wall,
                untraced_wall_s: again.wall,
            },
            store: &log,
            server: &ServerTimes::default(),
            cells_total: mirror.cells_total,
        },
    );
    tracer
        .write_jsonl(&span_file(args))
        .expect("write the span file");
    report
}
