//! Engine design-space exploration: the full MLC-CTT candidate space
//! (105 schemes) over two VGG12-shaped layers. The engine shares raw
//! encodes and clean decodes through the `EncodeCache`, precomputes the
//! fault maps once, samples faults sparsely over `PreparedLayer`s, and
//! flattens (scheme × trial) onto the persistent worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_envm::{CellTechnology, SenseAmp};
use maxnvm_faultsim::dse::explore_concrete;
use maxnvm_faultsim::evaluate::ProxyEval;
use maxnvm_faultsim::{Campaign, DseConfig};

fn fixture() -> (Vec<ClusteredLayer>, ProxyEval, DseConfig) {
    let spec = zoo::vgg12();
    let layers: Vec<ClusteredLayer> = [3usize, 5]
        .iter()
        .map(|&i| {
            let m = spec.layers[i].sample_matrix(spec.paper.sparsity, 23 + i as u64, 64, 256);
            ClusteredLayer::from_matrix(&m, 4, 5)
        })
        .collect();
    let reference = layers.iter().map(ClusteredLayer::reconstruct).collect();
    let eval = ProxyEval::new(reference, 0.1, 0.9);
    let cfg = DseConfig {
        campaign: Campaign {
            trials: 6,
            seed: 3,
            rate_scale: 120.0,
        },
        itn_bound: 0.02,
    };
    (layers, eval, cfg)
}

fn bench_dse(c: &mut Criterion) {
    let (layers, eval, cfg) = fixture();
    let sa = SenseAmp::paper_default();
    let tech = CellTechnology::MlcCtt;

    let mut group = c.benchmark_group("dse");
    group.sample_size(10);
    group.bench_function("engine_parallel_sweep", |b| {
        b.iter(|| explore_concrete(&layers, tech, &sa, &eval, &cfg).expect("dse"))
    });
    group.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
