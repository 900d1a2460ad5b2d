//! Determinism guarantees: every stochastic stage is seeded, so the whole
//! pipeline — training, clustering, storage, injection, DSE, system
//! evaluation — must be bit-reproducible run to run. This is what makes
//! the regression locks and `EXPERIMENTS.md` meaningful.
//!
//! The engine's sparse fault sampler is also checked here against a
//! serial per-cell oracle ([`oracle`]): the two draw different RNG
//! streams with the same per-cell marginals, so they agree statistically.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_dnn::data::SyntheticDigits;
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{self, lenet_mini};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::{EncodingKind, StructureKind};
use maxnvm_envm::{MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::{fault_maps, Campaign};
use maxnvm_faultsim::dse::{candidate_schemes, DseConfig};
use maxnvm_faultsim::evaluate::{AccuracyEval, ProxyEval};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Serial per-cell oracle for the engine: trial `t` seeds `StdRng` with
/// `seed + t`, injects faults cell by cell into every stored layer (into
/// `target` structures only, when given) and evaluates the decoded
/// matrices. Returns the per-trial errors and the mean injected cell
/// faults per trial.
fn oracle(
    campaign: &Campaign,
    stored: &[StoredLayer],
    target: Option<StructureKind>,
    tech: CellTechnology,
    sa: &SenseAmp,
    eval: &dyn AccuracyEval,
) -> (Vec<f64>, f64) {
    let maps = fault_maps(tech, sa);
    let fault_for = |cfg: MlcConfig| Arc::new(maps(cfg).scaled(campaign.rate_scale));
    let mut faults = 0usize;
    let errors: Vec<f64> = (0..campaign.trials)
        .map(|t| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(campaign.seed.wrapping_add(t as u64));
            let mats: Vec<LayerMatrix> = stored
                .iter()
                .map(|layer| {
                    let (m, stats) = match target {
                        Some(kind) => layer.decode_with_isolated_faults(kind, &fault_for, &mut rng),
                        None => layer.decode_with_faults(&fault_for, &mut rng),
                    };
                    faults += stats.cell_faults;
                    m
                })
                .collect();
            eval.eval(&mats)
        })
        .collect();
    (errors, faults as f64 / campaign.trials.max(1) as f64)
}

/// The oracle over a whole sweep: every candidate scheme stored afresh,
/// with its total cells and its mean error over the campaign.
fn oracle_sweep(
    layers: &[ClusteredLayer],
    tech: CellTechnology,
    sa: &SenseAmp,
    eval: &dyn AccuracyEval,
    cfg: &DseConfig,
) -> Vec<(StorageScheme, u64, f64)> {
    candidate_schemes(tech)
        .into_iter()
        .map(|scheme| {
            let stored: Vec<StoredLayer> = layers
                .iter()
                .map(|l| StoredLayer::store(l, &scheme))
                .collect();
            let cells = stored.iter().map(StoredLayer::total_cells).sum();
            let (errors, _) = oracle(&cfg.campaign, &stored, None, tech, sa, eval);
            (scheme, cells, mean(&errors))
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

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
fn dse_fixture() -> (Vec<ClusteredLayer>, ProxyEval, DseConfig) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    let cfg = DseConfig {
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
    // than the per-cell oracle, so per-point errors differ within
    // Monte-Carlo noise; everything deterministic — the candidate
    // schemes and their cell counts — must match exactly.
    use maxnvm_faultsim::dse::explore_concrete;
    let (layers, eval, mut cfg) = dse_fixture();
    cfg.campaign.trials = 24;
    let sa = SenseAmp::paper_default();
    let engine = explore_concrete(&layers, CellTechnology::MlcCtt, &sa, &eval, &cfg).expect("dse");
    let reference = oracle_sweep(&layers, CellTechnology::MlcCtt, &sa, &eval, &cfg);
    assert_eq!(engine.len(), reference.len());
    for (e, (scheme, cells, _)) in engine.iter().zip(&reference) {
        assert_eq!(&e.scheme, scheme);
        assert_eq!(e.cells, *cells);
    }
    // Sweep-wide mean error aggregates 105 schemes x 24 trials per arm;
    // the two samplers must land on the same value within noise.
    let me = engine.iter().map(|p| p.mean_error).sum::<f64>() / engine.len() as f64;
    let mr = reference.iter().map(|r| r.2).sum::<f64>() / reference.len() as f64;
    assert!((me - mr).abs() < 0.03, "engine {me} vs reference {mr}");
}

/// A 64×128 half-pruned layer stored as an MLC3 bitmask, with a proxy
/// evaluator over its clean reconstruction.
fn bitmask_fixture() -> (StoredLayer, ProxyEval) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let data: Vec<f32> = (0..64 * 128)
        .map(|_| {
            if rng.gen::<f64>() < 0.5 {
                0.0
            } else {
                rng.gen::<f32>() + 0.1
            }
        })
        .collect();
    let c = ClusteredLayer::from_matrix(&LayerMatrix::new("l", 64, 128, data), 4, 3);
    let stored = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3),
    );
    (stored, ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9))
}

/// Runs the engine campaign (isolated to `target` when given) and the
/// per-cell oracle on the bitmask fixture and checks that they agree:
/// trial counts equal, both fault means within 25% of the engine's exact
/// expectation, and mean errors within 0.1.
fn assert_engine_agrees_with_oracle(campaign: Campaign, target: Option<StructureKind>) {
    let (stored, eval) = bitmask_fixture();
    let (tech, sa) = (CellTechnology::MlcRram, SenseAmp::paper_default());
    let stored = std::slice::from_ref(&stored);
    let engine = match target {
        Some(kind) => campaign.run_isolated(stored, kind, tech, &sa, &eval),
        None => campaign.run(stored, tech, &sa, &eval),
    }
    .expect("campaign");
    let (errors, mean_faults) = oracle(&campaign, stored, target, tech, &sa, &eval);
    assert_eq!(engine.errors.len(), errors.len());
    // Faults must actually land, or the comparison is vacuous.
    assert!(
        engine.expected_cell_faults > 0.5,
        "{}",
        engine.expected_cell_faults
    );
    for (arm, mean) in [
        ("engine", engine.mean_cell_faults),
        ("reference", mean_faults),
    ] {
        let rel = (mean / engine.expected_cell_faults - 1.0).abs();
        assert!(
            rel < 0.25,
            "{arm} mean {mean} vs expected {} (rel {rel})",
            engine.expected_cell_faults
        );
    }
    let reference = mean(&errors);
    assert!(
        (engine.mean_error - reference).abs() < 0.1,
        "engine {} vs reference {reference}",
        engine.mean_error
    );
}

#[test]
fn engine_run_agrees_with_the_reference_implementation() {
    assert_engine_agrees_with_oracle(
        Campaign {
            trials: 200,
            seed: 21,
            rate_scale: 40.0,
        },
        None,
    );
}

#[test]
fn engine_isolated_run_agrees_with_per_cell_isolated_injection() {
    // Fig. 5's methodology: faults land only in the bitmask structure.
    assert_engine_agrees_with_oracle(
        Campaign {
            trials: 200,
            seed: 21,
            rate_scale: 40.0,
        },
        Some(StructureKind::Mask),
    );
}
