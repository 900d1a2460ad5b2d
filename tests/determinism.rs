//! Determinism guarantees: every stochastic stage is seeded, so the whole
//! pipeline — training, clustering, storage, injection, DSE, system
//! evaluation — must be bit-reproducible run to run. This is what makes
//! the regression locks and `EXPERIMENTS.md` meaningful.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_dnn::data::SyntheticDigits;
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{self, lenet_mini};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::Campaign;
use maxnvm_faultsim::evaluate::ProxyEval;

#[test]
fn training_is_deterministic() {
    let data = SyntheticDigits::generate(300, 42);
    let run = || {
        let mut net = lenet_mini(7);
        sgd_train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs: 2,
                lr: 0.005,
                momentum: 0.9,
                seed: 1,
            },
        )
        .unwrap();
        net
    };
    assert_eq!(run(), run());
}

#[test]
fn clustering_and_storage_are_deterministic() {
    let spec = zoo::vgg12();
    let m = spec.layers[3].sample_matrix(spec.paper.sparsity, 9, 64, 256);
    let run = || {
        let c = ClusteredLayer::from_matrix(&m, 4, 5);
        StoredLayer::store(
            &c,
            &StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn campaigns_are_deterministic_across_thread_schedules() {
    // Trials are seeded per trial id, so the parallel campaign's result
    // must not depend on thread interleaving.
    let spec = zoo::vgg12();
    let m = spec.layers[5].sample_matrix(spec.paper.sparsity, 11, 64, 256);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let stored = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    );
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    let campaign = Campaign {
        trials: 16,
        seed: 3,
        rate_scale: 100.0,
    };
    let run = || {
        campaign
            .run(
                std::slice::from_ref(&stored),
                CellTechnology::MlcCtt,
                &SenseAmp::paper_default(),
                &eval,
            )
            .expect("campaign")
    };
    let a = run();
    let b = run();
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.mean_cell_faults, b.mean_cell_faults);
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = optimal_design(&zoo::resnet50(), CellTechnology::MlcCtt).expect("design");
    let b = optimal_design(&zoo::resnet50(), CellTechnology::MlcCtt).expect("design");
    assert_eq!(a, b);
}

/// A small but non-trivial DSE setup: one sparse layer, a handful of
/// trials, exaggerated rates so faults actually land.
fn dse_fixture() -> (Vec<ClusteredLayer>, ProxyEval, maxnvm_faultsim::DseConfig) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    let cfg = maxnvm_faultsim::DseConfig {
        campaign: Campaign {
            trials: 4,
            seed: 13,
            rate_scale: 120.0,
        },
        itn_bound: 0.02,
    };
    (vec![c], eval, cfg)
}

#[test]
fn engine_dse_is_identical_at_any_worker_count() {
    // The engine seeds per (scheme, trial) and assembles results by
    // index, so the point vector must be byte-identical whether one
    // worker or every core runs the sweep.
    use maxnvm_faultsim::engine::{EvalContext, RunControl};
    let (layers, eval, cfg) = dse_fixture();
    let sa = SenseAmp::paper_default();
    let run = |workers| {
        EvalContext::with_workers(
            CellTechnology::MlcCtt,
            &sa,
            cfg.campaign.rate_scale,
            workers,
        )
        .expect("context")
        .run_dse_controlled(&layers, &eval, &cfg, &RunControl::default())
        .expect("dse")
    };
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let one = run(1);
    assert_eq!(one, run(2));
    assert_eq!(one, run(max));
}

#[test]
fn engine_dse_agrees_with_the_reference_sweep() {
    // The engine samples faults sparsely, drawing a different RNG stream
    // than the pre-engine per-cell sweep, so per-point errors differ
    // within Monte-Carlo noise; everything deterministic — the candidate
    // schemes and their cell counts — must match exactly.
    use maxnvm_faultsim::dse::{explore_concrete, explore_concrete_reference, DsePoint};
    let (layers, eval, mut cfg) = dse_fixture();
    cfg.campaign.trials = 24;
    let sa = SenseAmp::paper_default();
    let engine = explore_concrete(&layers, CellTechnology::MlcCtt, &sa, &eval, &cfg).expect("dse");
    let reference = explore_concrete_reference(&layers, CellTechnology::MlcCtt, &sa, &eval, &cfg);
    assert_eq!(engine.len(), reference.len());
    for (e, r) in engine.iter().zip(&reference) {
        assert_eq!(e.scheme, r.scheme);
        assert_eq!(e.cells, r.cells);
    }
    // Sweep-wide mean error aggregates 105 schemes x 24 trials per arm;
    // the two samplers must land on the same value within noise.
    let sweep_mean =
        |pts: &[DsePoint]| pts.iter().map(|p| p.mean_error).sum::<f64>() / pts.len() as f64;
    let (me, mr) = (sweep_mean(&engine), sweep_mean(&reference));
    assert!((me - mr).abs() < 0.03, "engine {me} vs reference {mr}");
}
