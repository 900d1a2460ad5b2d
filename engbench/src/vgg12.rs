//! `vgg12_campaign`: one `EvalContext::run_campaign_controlled` call per
//! measurement, on a VGG12-scale five-layer fully-connected stack
//! (2.23M weights at the Table-2 density of 0.59) stored as
//! BitMask+IdxSync at MLC3 and physical MLC-CTT fault rates (about 20
//! cell faults a trial), evaluated end to end by `NetworkEval` on a
//! 512-sample batch, with a sparse checkpoint cadence.
//!
//! Almost every trial faults fc1, so every trial runs the whole suffix,
//! and every layer is denser than the sparse/dense cutover, so every
//! suffix GEMM takes the dense route: network evaluation dominates.

use crate::campaign::{check_complete, replay};
use crate::mirror::NetMirror;
use crate::per_layer::{self, EngineRun, Phases, ServerTimes};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrappers::{EvalCounters, StoreLog, TimingEval, TimingStore};
use crate::{call_seed, repeat_calls, repeat_setup, sample_indices, span_file, sys, tail, Args};
use maxnvm_dnn::data::{gaussian_clusters, Samples};
use maxnvm_dnn::layer::Layer;
use maxnvm_dnn::network::Network;
use maxnvm_dnn::zoo::{self, prune_to_sparsity};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{PreparedLayer, StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::{
    AccuracyEval, CampaignResult, CheckpointConfig, CheckpointStore, EvalContext, FsStore,
    NetworkEval, RunControl,
};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trials per `run_campaign_controlled` call.
const CALL_TRIALS: usize = 64;
/// Checkpoint cadence, in trials.
const CHECKPOINT_EVERY: usize = 32;
/// Trials the mirror replays to check an untraced run.
const GATE_TRIALS: usize = 3;
/// Trials the mirror replays in a traced run.
const TRACE_TRIALS: usize = 16;

struct Model {
    eval: Arc<NetworkEval>,
    test: Samples,
    stored: Vec<StoredLayer>,
    ctx: EvalContext,
    phases: Phases,
}

fn build() -> Model {
    let paper = zoo::vgg12().paper;
    let mut net = Network::new(
        "vgg12-scale",
        vec![
            Layer::linear("fc1", 1024, 512),
            Layer::ReLU,
            Layer::linear("fc2", 1024, 1024),
            Layer::ReLU,
            Layer::linear("fc3", 512, 1024),
            Layer::ReLU,
            Layer::linear("fc4", 256, 512),
            Layer::ReLU,
            Layer::linear("fc5", 10, 256),
        ],
    );
    maxnvm_dnn::train::he_init(&mut net, 17);
    let clustered: Vec<ClusteredLayer> = net
        .weight_matrices()
        .iter_mut()
        .map(|m| {
            prune_to_sparsity(&mut m.data, paper.sparsity);
            ClusteredLayer::from_matrix(m, paper.cluster_index_bits, 21)
        })
        .collect();
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let t = Instant::now();
    let stored: Vec<StoredLayer> = clustered
        .iter()
        .map(|c| StoredLayer::store(c, &scheme))
        .collect();
    let encode_s = t.elapsed().as_secs_f64();
    let clean: Vec<_> = clustered.iter().map(ClusteredLayer::reconstruct).collect();
    net.set_weight_matrices(&clean);
    let test = gaussian_clusters(512, 10, 512, 2.5, 9);
    let eval = Arc::new(NetworkEval::new(net, test.clone()));
    let t = Instant::now();
    let ctx = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::paper_default(), 1.0)
        .expect("engine context");
    let context_s = t.elapsed().as_secs_f64();
    Model {
        eval,
        test,
        stored,
        ctx,
        phases: Phases {
            train_s: 0.0,
            encode_s,
            context_s,
        },
    }
}

fn control(path: &Path, store: Arc<dyn CheckpointStore>) -> RunControl {
    RunControl {
        checkpoint: Some(
            CheckpointConfig::new(path)
                .every(CHECKPOINT_EVERY)
                .with_store(store),
        ),
        ..RunControl::default()
    }
}

fn campaign(
    model: &Model,
    seed: u64,
    eval: &(dyn AccuracyEval + Sync),
    control: &RunControl,
) -> (CampaignResult, f64) {
    let t = Instant::now();
    let r = model
        .ctx
        .run_campaign_controlled(CALL_TRIALS, seed, &model.stored, eval, control)
        .expect("vgg12 campaign");
    (r, t.elapsed().as_secs_f64())
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
        let ctl = control(&work.join(format!("vgg12-{i}.ckpt")), Arc::new(FsStore));
        let (r, wall) = campaign(&model, seed, &*model.eval, &ctl);
        check_complete(&mut report, &r, CALL_TRIALS, "vgg12 campaign");
        report.tally.campaign(CALL_TRIALS, r.completed_trials);
        rates.push(r.completed_trials as f64 / wall);
        walls.push(wall);
        first.get_or_insert((seed, r));
    });
    let (seed, r) = first.expect("at least one call");
    let prepared: Vec<PreparedLayer> = model.stored.iter().map(PreparedLayer::prepare).collect();
    let mut tracer = Tracer::default();
    let mut mirror = NetMirror::build(&mut tracer, model.eval.network(), &model.test, &prepared);
    let sample = sample_indices(args.seed, CALL_TRIALS, GATE_TRIALS);
    let fault_for = model.ctx.fault_for();
    replay(
        &mut report,
        &mut tracer,
        &mut mirror,
        &prepared,
        &fault_for,
        seed,
        &r,
        &sample,
        "vgg12 mirror",
    );
    println!(
        "vgg12_campaign: {} calls x {CALL_TRIALS} trials, {:.1} faults/trial, density {:.3}",
        walls.len(),
        r.mean_cell_faults,
        r.density
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
    let (plain, _) = campaign(
        &model,
        seed,
        &*model.eval,
        &control(&work.join("plain.ckpt"), fs.clone()),
    );
    check_complete(&mut report, &plain, CALL_TRIALS, "vgg12 campaign");
    report.tally.campaign(CALL_TRIALS, plain.completed_trials);

    let counters = Arc::new(EvalCounters::default());
    let log = Arc::new(Mutex::new(StoreLog::default()));
    let eval = TimingEval::new(model.eval.clone(), counters.clone());
    let store = Arc::new(TimingStore::new(fs, log.clone()));
    let cpu = sys::process_cpu_s();
    let (timed, wall) = campaign(
        &model,
        seed,
        &eval,
        &control(&work.join("traced.ckpt"), store),
    );
    let cpu_s = sys::process_cpu_s() - cpu;
    report.tally.campaign(CALL_TRIALS, timed.completed_trials);
    report.check(timed == plain, || {
        "vgg12: the traced campaign differs from the untraced one".into()
    });
    // Untraced again: the first call also warmed the process up, so the
    // overhead ratio compares two warm calls.
    let (again, again_wall) = campaign(
        &model,
        seed,
        &*model.eval,
        &control(&work.join("again.ckpt"), Arc::new(FsStore)),
    );
    report.tally.campaign(CALL_TRIALS, again.completed_trials);
    report.check(again == plain, || {
        "vgg12: repeating the campaign changed its result".into()
    });

    let prepared: Vec<PreparedLayer> = model.stored.iter().map(PreparedLayer::prepare).collect();
    let mut tracer = Tracer::default();
    let mut mirror = NetMirror::build(&mut tracer, model.eval.network(), &model.test, &prepared);
    let fault_for = model.ctx.fault_for();
    replay(
        &mut report,
        &mut tracer,
        &mut mirror,
        &prepared,
        &fault_for,
        seed,
        &plain,
        &sample_indices(args.seed, CALL_TRIALS, TRACE_TRIALS),
        "vgg12 mirror",
    );
    let log = log.lock().expect("store log").clone();
    per_layer::report(
        &mut report,
        &per_layer::Inputs {
            tracer: &tracer,
            counts: &mirror.counts,
            sparse_routes: mirror.sparse_routes(),
            phases: model.phases,
            eval: &counters,
            engine: EngineRun {
                trials: timed.completed_trials as u64,
                cpu_s,
                wall_s: wall,
                untraced_wall_s: again_wall,
            },
            store: &log,
            server: &ServerTimes::default(),
            cells_total: 0,
        },
    );
    tracer
        .write_jsonl(&span_file(args))
        .expect("write the span file");
    report
}
