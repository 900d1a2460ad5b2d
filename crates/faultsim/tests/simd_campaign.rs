//! Full-chain campaign bit-equality across SIMD tiers and worker
//! counts: a fault-injection campaign over a conv network whose second
//! convolution spans many register tiles on every tier must produce
//! byte-identical error vectors whether the kernels run on the scalar
//! tier or the host's best SIMD tier, and whether its trials run on 1,
//! 2 or 4 pool workers — the acceptance lock for the runtime-dispatched
//! microkernel work.
//!
//! One `#[test]` only: tier pinning is process-global dispatch state.

use maxnvm_dnn::gemm::{force_tier_for_tests, supported_tiers, SimdTier};
use maxnvm_dnn::layer::Layer;
use maxnvm_dnn::network::Network;
use maxnvm_dnn::tensor::Tensor;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::engine::{EvalContext, RunControl};
use maxnvm_faultsim::evaluate::NetworkEval;
use rand::{Rng, SeedableRng};

/// A conv net whose second convolution is a 32×216 by 216×576 multiply
/// (24×24 output map), many register tiles wide on every tier.
fn conv_net(seed: u64) -> Network {
    let mut net = Network::new(
        "simd-campaign-conv",
        vec![
            Layer::conv2d("conv1", 24, 1, 5, 1, 0), // 28 -> 24
            Layer::ReLU,
            Layer::conv2d("conv2", 32, 24, 3, 1, 1), // 24 -> 24
            Layer::ReLU,
            Layer::AvgPoolGlobal,
            Layer::linear("fc", 4, 32),
        ],
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    net.for_each_weight_tensor_mut(|_, w| {
        let fan_in = w.shape()[w.shape().len() - 1] as f32;
        let scale = (2.0 / fan_in).sqrt();
        for v in w.data_mut() {
            *v = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
        }
    });
    net
}

#[test]
fn campaign_is_byte_identical_across_tiers_and_workers() {
    let net = conv_net(11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let test: Vec<(Tensor, usize)> = (0..6)
        .map(|_| {
            let pixels: Vec<f32> = (0..28 * 28).map(|_| rng.gen::<f32>()).collect();
            (Tensor::from_vec(&[1, 28, 28], pixels), rng.gen_range(0..4))
        })
        .collect();
    let eval = NetworkEval::new(net.clone(), test);

    // Prune 60% per layer and encode, mirroring the engine's own
    // worker-invariance lock.
    let stored: Vec<StoredLayer> = net
        .weight_matrices()
        .iter()
        .map(|m| {
            let mut pruned = m.clone();
            let mut mags: Vec<f32> = pruned.data.iter().map(|v| v.abs()).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let t = mags[((mags.len() - 1) as f64 * 0.6) as usize];
            for v in &mut pruned.data {
                if v.abs() <= t {
                    *v = 0.0;
                }
            }
            let clustered = ClusteredLayer::from_matrix(&pruned, 4, 9);
            StoredLayer::store(
                &clustered,
                &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
            )
        })
        .collect();

    let sa = SenseAmp::paper_default();
    let (trials, seed, scale) = (8usize, 5u64, 2000.0);
    let run = |tier: SimdTier, workers: usize| {
        force_tier_for_tests(Some(tier));
        let result = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, workers)
            .unwrap()
            .run_campaign_controlled(trials, seed, &stored, &eval, &RunControl::default())
            .unwrap();
        force_tier_for_tests(None);
        result.errors
    };

    let reference = run(SimdTier::Scalar, 1);
    assert_eq!(reference.len(), trials);
    assert!(reference.iter().all(|e| e.is_finite()));

    let best = *supported_tiers().last().unwrap();
    for tier in [SimdTier::Scalar, best] {
        for workers in [1, 2, 4] {
            let errors = run(tier, workers);
            for (t, (got, want)) in errors.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "trial {t} drifted on tier {} with {workers} workers",
                    tier.name()
                );
            }
        }
    }
}
