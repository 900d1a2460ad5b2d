//! `lenet_streams`: bursts of independent campaign streams, all
//! submitted at once to one `Supervisor` (a closed burst: the next burst
//! starts when every stream of the last one has ended).
//!
//! The model is the trained lenet-mini, trained, pruned and clustered as
//! `examples/embedded_inference.rs` does it, stored as
//! BitMask+IdxSync+ECC at MLC3 with fault rates scaled by 160 and
//! evaluated on the held-out synthetic digits. Trials take about a
//! millisecond of small conv GEMMs; what dominates is the fsync'd
//! checkpoint written after every trial, supervisor scheduling and ECC
//! decoding.

use crate::campaign::{check_complete, replay};
use crate::mirror::NetMirror;
use crate::per_layer::{self, EngineRun, Phases, ServerTimes};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrappers::{EvalCounters, StoreLog, TimingEval, TimingStore};
use crate::{call_seed, repeat_calls, repeat_setup, sample_indices, span_file, sys, tail, Args};
use maxnvm_dnn::data::{Samples, SyntheticDigits};
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{lenet_mini, prune_to_sparsity};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{PreparedLayer, StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CampaignResult, CheckpointStore, EvalContext, FsStore, NetworkEval,
    RunControl,
};
use maxnvm_server::{CampaignJob, StreamState, Supervisor, SupervisorConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Streams per burst: the fewest that leave ten streams beyond p90.
const STREAMS: usize = 100;
/// Trials per stream.
const STREAM_TRIALS: usize = 16;
/// Fault-rate multiplier matching a full-size LeNet5's expected faults.
const RATE_SCALE: f64 = 160.0;
/// Streams whose trials the mirror replays, and trials per stream, to
/// check an untraced run and in a traced run.
const GATE: (usize, usize) = (1, 4);
const TRACE: (usize, usize) = (4, STREAM_TRIALS);

struct Model {
    eval: Arc<NetworkEval>,
    test: Samples,
    stored: Vec<StoredLayer>,
    ctx: EvalContext,
    phases: Phases,
}

fn train(net: &mut maxnvm_dnn::Network, data: &Samples, epochs: usize, lr: f32, seed: u64) {
    let cfg = TrainConfig {
        epochs,
        lr,
        momentum: 0.9,
        seed,
    };
    sgd_train(net, data, &cfg).expect("lenet-mini is trainable");
}

fn build() -> Model {
    let data = SyntheticDigits::generate(1500, 42);
    let mut net = lenet_mini(7);
    let t = Instant::now();
    train(&mut net, &data.train, 6, 0.004, 1);
    let mut train_s = t.elapsed().as_secs_f64();
    // Prune, retrain briefly, prune again to restore the zeros.
    let prune = |net: &mut maxnvm_dnn::Network| {
        let mut mats = net.weight_matrices();
        for m in &mut mats {
            prune_to_sparsity(&mut m.data, 0.6);
        }
        net.set_weight_matrices(&mats);
        mats
    };
    prune(&mut net);
    let t = Instant::now();
    train(&mut net, &data.train, 2, 0.002, 2);
    train_s += t.elapsed().as_secs_f64();
    let mats = prune(&mut net);
    let eval = Arc::new(NetworkEval::new(net, data.test.clone()));
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3)
        .with_idx_sync()
        .with_ecc();
    let clustered: Vec<ClusteredLayer> = mats
        .iter()
        .map(|m| ClusteredLayer::from_matrix(m, 4, 5))
        .collect();
    let t = Instant::now();
    let stored: Vec<StoredLayer> = clustered
        .iter()
        .map(|c| StoredLayer::store(c, &scheme))
        .collect();
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ctx = EvalContext::new(
        CellTechnology::MlcCtt,
        &SenseAmp::paper_default(),
        RATE_SCALE,
    )
    .expect("engine context");
    let context_s = t.elapsed().as_secs_f64();
    Model {
        eval,
        test: data.test,
        stored,
        ctx,
        phases: Phases {
            train_s,
            encode_s,
            context_s,
        },
    }
}

/// Campaign seed of stream `i` of a burst based at `seed`.
fn stream_seed(seed: u64, i: usize) -> u64 {
    seed + (i * STREAM_TRIALS) as u64
}

/// One stream of a burst, as the client saw it.
struct Stream {
    id: maxnvm_server::StreamId,
    submitted: Instant,
    submit_us: f64,
    ended: Option<Instant>,
    state: StreamState,
    result: Option<CampaignResult>,
}

impl Stream {
    fn latency(&self) -> Option<f64> {
        let ended = self.ended?;
        (self.state == StreamState::Done).then(|| (ended - self.submitted).as_secs_f64())
    }
}

/// Submits `STREAMS` streams to `sup` at once and polls until every one
/// has ended. Streams are checked and counted in `report`.
fn burst(
    report: &mut Report,
    sup: &Supervisor,
    model: &Model,
    eval: &Arc<dyn AccuracyEval + Send + Sync>,
    seed: u64,
    tag: &str,
) -> Vec<Stream> {
    let mut streams = Vec::with_capacity(STREAMS);
    for i in 0..STREAMS {
        let job = CampaignJob {
            campaign: Campaign {
                trials: STREAM_TRIALS,
                seed: stream_seed(seed, i),
                rate_scale: RATE_SCALE,
            },
            stored: model.stored.clone(),
            tech: CellTechnology::MlcCtt,
            sa: SenseAmp::paper_default(),
            eval: Arc::clone(eval),
        };
        let submitted = Instant::now();
        let outcome = sup.submit(format!("{tag}-{i}"), job);
        let submit_us = submitted.elapsed().as_secs_f64() * 1e6;
        match outcome {
            Ok(id) => streams.push(Stream {
                id,
                submitted,
                submit_us,
                ended: None,
                state: StreamState::Submitted,
                result: None,
            }),
            Err(rejected) => {
                report.tally.stream(STREAM_TRIALS, false, 0);
                report.check(false, || format!("stream {tag}-{i} rejected: {rejected}"));
            }
        }
    }
    let mut pending: Vec<usize> = (0..streams.len()).collect();
    while !pending.is_empty() {
        pending.retain(|&i| {
            let s = &mut streams[i];
            let status = sup.status(&s.id).expect("a submitted stream is known");
            if status.state.is_active() {
                return true;
            }
            s.ended = Some(Instant::now());
            s.state = status.state;
            s.result = status.result;
            false
        });
        std::thread::sleep(Duration::from_millis(1));
    }
    for s in &streams {
        let done = s.state == StreamState::Done;
        let completed = s.result.as_ref().map_or(0, |r| r.completed_trials);
        report.tally.stream(STREAM_TRIALS, done, completed);
        report.check(done, || format!("stream {} ended {}", s.id, s.state));
        if let Some(r) = &s.result {
            check_complete(report, r, STREAM_TRIALS, s.id.as_str());
        }
    }
    streams
}

fn supervisor(dir: &Path, store: Arc<dyn CheckpointStore>) -> Supervisor {
    Supervisor::start(
        SupervisorConfig::new(dir)
            .max_running(sys::nproc())
            .max_inflight(2 * STREAMS)
            .checkpoint_every(1)
            .watchdog(Duration::from_secs(120))
            .with_store(store),
    )
    .expect("start the supervisor")
}

/// Checks sampled streams of a burst based at `seed`: the first against
/// a direct `run_campaign_controlled` of the same job, and `trials`
/// trials of each against the mirror.
fn check_streams(
    report: &mut Report,
    tracer: &mut Tracer,
    model: &Model,
    streams: &[Stream],
    seed: u64,
    (count, trials): (usize, usize),
) -> NetMirror {
    let prepared: Vec<PreparedLayer> = model.stored.iter().map(PreparedLayer::prepare).collect();
    let mut mirror = NetMirror::build(tracer, model.eval.network(), &model.test, &prepared);
    let fault_for = model.ctx.fault_for();
    for (n, i) in sample_indices(seed, streams.len(), count)
        .into_iter()
        .enumerate()
    {
        let Some(result) = &streams[i].result else {
            continue;
        };
        if n == 0 {
            let direct = model
                .ctx
                .run_campaign_controlled(
                    STREAM_TRIALS,
                    stream_seed(seed, i),
                    &model.stored,
                    &*model.eval,
                    &RunControl::default(),
                )
                .expect("direct campaign");
            report.check(&direct == result, || {
                format!("stream {i} differs from a direct run of its job")
            });
        }
        replay(
            report,
            tracer,
            &mut mirror,
            &prepared,
            &fault_for,
            stream_seed(seed, i),
            result,
            &sample_indices(seed ^ i as u64, STREAM_TRIALS, trials),
            "stream mirror",
        );
    }
    mirror
}

/// Runs the workload.
pub fn run(args: &Args, work: &Path) -> Report {
    if args.trace {
        return traced(args, work);
    }
    let (model, setup_s) = repeat_setup(build);
    let mut report = Report::default();
    let eval: Arc<dyn AccuracyEval + Send + Sync> = model.eval.clone();
    let sup = supervisor(&work.join("spool"), Arc::new(FsStore));
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    repeat_calls(args.seconds, 3, |b| {
        let seed = call_seed(args.seed, b);
        let streams = burst(&mut report, &sup, &model, &eval, seed, &format!("b{b}"));
        let latencies: Vec<f64> = streams.iter().filter_map(Stream::latency).collect();
        let wall = streams
            .iter()
            .filter_map(|s| s.ended)
            .max()
            .zip(streams.first())
            .map_or(0.0, |(end, s)| (end - s.submitted).as_secs_f64());
        let trials: usize = streams
            .iter()
            .filter_map(|s| s.result.as_ref())
            .map(|r| r.completed_trials)
            .sum();
        if !latencies.is_empty() && wall > 0.0 {
            rates.push(trials as f64 / wall);
            p50s.push(median(&latencies));
            tails.push(tail(&latencies));
        }
        first.get_or_insert((seed, streams));
    });
    sup.shutdown();
    let (seed, streams) = first.expect("at least one burst");
    check_streams(
        &mut report,
        &mut Tracer::default(),
        &model,
        &streams,
        seed,
        GATE,
    );
    println!(
        "lenet_streams: {} bursts x {STREAMS} streams x {STREAM_TRIALS} trials; \
         stream_latency_p50_s = {:.4}, stream_latency_p90_s = {:.4} (medians over bursts of {STREAMS} streams)",
        rates.len(),
        median(&p50s),
        median(&tails)
    );
    report.metric("trials_per_s", median(&rates), "1/s");
    report.metric("verdict_s", median(&p50s), "s");
    report.metric("verdict_tail_s", median(&tails), "s");
    report.metric("setup_s", setup_s, "s");
    report
}

fn traced(args: &Args, work: &Path) -> Report {
    let model = build();
    let mut report = Report::default();
    let seed = call_seed(args.seed, 0);
    let plain_eval: Arc<dyn AccuracyEval + Send + Sync> = model.eval.clone();
    let plain_sup = supervisor(&work.join("spool-plain"), Arc::new(FsStore));
    let plain = burst(&mut report, &plain_sup, &model, &plain_eval, seed, "p");

    let counters = Arc::new(EvalCounters::default());
    let log = Arc::new(Mutex::new(StoreLog::default()));
    let eval: Arc<dyn AccuracyEval + Send + Sync> =
        Arc::new(TimingEval::new(model.eval.clone(), counters.clone()));
    let spool = work.join("spool-traced");
    let sup = supervisor(
        &spool,
        Arc::new(TimingStore::new(Arc::new(FsStore), log.clone())),
    );
    let cpu = sys::process_cpu_s();
    let t = Instant::now();
    let timed = burst(&mut report, &sup, &model, &eval, seed, "t");
    let wall = t.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu;
    sup.shutdown();
    // Untraced again: the first call also warmed the process up, so the
    // overhead ratio compares two warm calls.
    let t = Instant::now();
    let again = burst(&mut report, &plain_sup, &model, &plain_eval, seed, "q");
    let again_wall = t.elapsed().as_secs_f64();
    plain_sup.shutdown();
    for (i, ((a, b), c)) in plain.iter().zip(&timed).zip(&again).enumerate() {
        report.check(a.result == b.result && a.result == c.result, || {
            format!("stream {i}: results differ between the traced and untraced bursts")
        });
    }

    let log = log.lock().expect("store log").clone();
    let mut server = ServerTimes::default();
    for s in &timed {
        server.submit_us.push(s.submit_us);
        if let (Some(&first_write), Some(ended)) =
            (log.first_write.get(&s.id.spool_path(&spool)), s.ended)
        {
            server
                .queue_wait_s
                .push((first_write - s.submitted).as_secs_f64());
            server.run_s.push((ended - first_write).as_secs_f64());
        }
    }
    let mut tracer = Tracer::default();
    let mirror = check_streams(&mut report, &mut tracer, &model, &plain, seed, TRACE);
    per_layer::report(
        &mut report,
        &per_layer::Inputs {
            tracer: &tracer,
            counts: &mirror.counts,
            sparse_routes: mirror.sparse_routes(),
            phases: model.phases,
            eval: &counters,
            engine: EngineRun {
                trials: timed
                    .iter()
                    .filter_map(|s| s.result.as_ref())
                    .map(|r| r.completed_trials as u64)
                    .sum(),
                cpu_s,
                wall_s: wall,
                untraced_wall_s: again_wall,
            },
            store: &log,
            server: &server,
            cells_total: 0,
        },
    );
    tracer
        .write_jsonl(&span_file(args))
        .expect("write the span file");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::reportable_percentile;

    #[test]
    fn bursts_leave_ten_streams_beyond_p90() {
        assert_eq!(reportable_percentile(STREAMS), Some(90.0));
    }
}
