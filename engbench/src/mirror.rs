//! The single-thread mirror: replays trials the engine ran by calling
//! the layers' public functions in the engine's order, one span per
//! call, so each layer's time and work can be attributed. Its results
//! are checked bit for bit against the engine's.
//!
//! [`NetMirror`] replays a [`NetworkEval`] campaign trial: fault
//! sampling and delta extraction per layer, the sparse patch of the
//! first faulted layer, the clean-prefix row recompute, the suffix
//! forward layer by layer, and the argmax. [`DseMirror`] replays an
//! early-stopping DSE sweep under [`ProxyEval`] scheme by scheme.
//!
//! [`NetworkEval`]: maxnvm_faultsim::NetworkEval

use crate::sys;
use crate::trace::Tracer;
use maxnvm_dnn::gemm::SPARSE_DENSE_CUTOVER;
use maxnvm_dnn::layer::{ForwardScratch, Layer};
use maxnvm_dnn::network::{argmax, Network, WeightDelta};
use maxnvm_dnn::prefix::PrefixCache;
use maxnvm_dnn::sparse::SparseMatrix;
use maxnvm_dnn::tensor::Tensor;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{DecodeStats, EncodeCache, PreparedLayer, StorageScheme};
use maxnvm_envm::{FaultMap, MlcConfig};
use maxnvm_faultsim::evaluate::EvalScratch;
use maxnvm_faultsim::{AccuracyEval, EarlyStop, ProxyEval};
use rand::SeedableRng;
use std::sync::Arc;

/// Provider of the (rate-scaled) fault map per bits-per-cell setting.
pub type FaultFor<'a> = &'a dyn Fn(MlcConfig) -> Arc<FaultMap>;

/// Whether the GEMM kernel multiplies a matrix of stored `density`
/// through its sparse walk: `sparse_gemm_into` materializes and runs
/// the dense kernel only above [`SPARSE_DENSE_CUTOVER`].
pub fn sparse_route(density: f64) -> bool {
    density <= SPARSE_DENSE_CUTOVER
}

/// Bytes one suffix GEMM reads and writes, counted from its operands:
/// the weight stream (4-byte value plus 4-byte column per stored entry),
/// on the dense route also its materialization written and read back
/// (`rows·k` floats each way), the packed right-hand matrix (`k·n`
/// floats) and the output (`rows·n` floats).
pub fn gemm_bytes(rows: usize, k: usize, n: usize, nnz: usize, sparse: bool) -> u64 {
    let stream = 8 * nnz as u64;
    let densify = if sparse { 0 } else { 2 * 4 * (rows * k) as u64 };
    stream + densify + 4 * (k * n) as u64 + 4 * (rows * n) as u64
}

/// Deterministic per-trial counts the mirror gathers, summed over the
/// mirrored trials.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Trials replayed.
    pub trials: u64,
    /// Per weight layer: cell faults, deltas.
    pub cell_faults: Vec<u64>,
    pub deltas: Vec<u64>,
    /// ECC words corrected / detected uncorrectable.
    pub ecc_corrected: u64,
    pub ecc_uncorrectable: u64,
    /// Bytes of the delta-patched sparse matrices built.
    pub with_deltas_bytes: u64,
    /// Bytes of clean activation batches cloned by the prefix patch.
    pub patch_bytes: u64,
    /// Dirty rows recomputed in the first faulted layer.
    pub dirty_rows: u64,
    /// Sum over trials of the share of weight layers the prefix skipped.
    pub skip: f64,
    /// Per weight layer: suffix GEMM calls, dense-equivalent flops, bytes.
    pub gemm_calls: Vec<u64>,
    pub gemm_flops: Vec<f64>,
    pub gemm_bytes: Vec<u64>,
    /// Allocations and bytes requested inside the mirrored trials.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// CPU seconds of the mirror thread inside the trials.
    pub cpu_s: f64,
}

impl Counts {
    fn new(layers: usize) -> Self {
        Self {
            cell_faults: vec![0; layers],
            deltas: vec![0; layers],
            gemm_calls: vec![0; layers],
            gemm_flops: vec![0.0; layers],
            gemm_bytes: vec![0; layers],
            ..Self::default()
        }
    }

    fn absorb_stats(&mut self, layer: usize, stats: DecodeStats, deltas: usize) {
        self.cell_faults[layer] += stats.cell_faults as u64;
        self.deltas[layer] += deltas as u64;
        self.ecc_corrected += stats.ecc_corrected as u64;
        self.ecc_uncorrectable += stats.ecc_uncorrectable as u64;
    }
}

fn matrix_bytes(m: &SparseMatrix) -> u64 {
    8 * m.nnz() as u64 + 4 * (m.rows() as u64 + 1)
}

/// Samples one trial's sparse weight deltas layer by layer, as the
/// engine's trial closure does, with one `encoding.deltas` span each.
fn sample_deltas(
    tracer: &mut Tracer,
    counts: &mut Counts,
    prepared: &[PreparedLayer],
    fault_for: FaultFor,
    seed: u64,
) -> Vec<Vec<WeightDelta>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    prepared
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let (d, stats) = tracer.span("encoding.deltas", Some(i), |_| {
                layer.deltas_with_faults(fault_for, &mut rng)
            });
            counts.absorb_stats(i, stats, d.len());
            d
        })
        .collect()
}

/// Replays campaign trials of a `NetworkEval` over prepared layers.
pub struct NetMirror {
    net: Network,
    cache: PrefixCache,
    sparse: Vec<Arc<SparseMatrix>>,
    cols: Vec<usize>,
    sparse_routes: Vec<bool>,
    labels: Vec<usize>,
    clean_error: f64,
    forward: ForwardScratch,
    row_buf: Vec<f32>,
    dirty_rows: Vec<usize>,
    undo: Vec<(usize, u32, f32)>,
    /// Counts over every replayed trial.
    pub counts: Counts,
}

impl NetMirror {
    /// Builds the clean prefix the engine's evaluator builds for a
    /// campaign: `net` (the evaluator's network) with the clean decoded
    /// weights of `prepared`, run once over the `test` batch from the
    /// sparse weight streams. Recorded as a `dnn.prefix.build` span.
    pub fn build(
        tracer: &mut Tracer,
        net: &Network,
        test: &[(Tensor, usize)],
        prepared: &[PreparedLayer],
    ) -> Self {
        let dense: Vec<_> = prepared.iter().map(|p| p.clean().matrix.clone()).collect();
        let sparse: Vec<Arc<SparseMatrix>> = prepared
            .iter()
            .map(|p| Arc::new(p.clean().sparse.clone()))
            .collect();
        let mut net = net.clone();
        net.set_weight_matrices(&dense);
        let xs: Vec<Tensor> = test.iter().map(|(x, _)| x.clone()).collect();
        let labels: Vec<usize> = test.iter().map(|(_, y)| *y).collect();
        let mut forward = ForwardScratch::default();
        let cache = tracer.span("dnn.prefix.build", None, |_| {
            let overlay: Vec<Option<&SparseMatrix>> = sparse.iter().map(|s| Some(&**s)).collect();
            PrefixCache::build_sparse(&net, &xs, &overlay, &mut forward)
                .expect("campaign networks are flat")
        });
        let clean_error = error_of(cache.clean_logits(), &labels);
        Self {
            cols: dense.iter().map(|m| m.cols).collect(),
            sparse_routes: sparse.iter().map(|s| sparse_route(s.density())).collect(),
            counts: Counts::new(dense.len()),
            net,
            cache,
            sparse,
            labels,
            clean_error,
            forward,
            row_buf: Vec::new(),
            dirty_rows: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Whether weight layer `i` takes the sparse GEMM route.
    pub fn sparse_routes(&self) -> &[bool] {
        &self.sparse_routes
    }

    /// Replays trial `trial` of a campaign seeded `seed` and returns its
    /// classification error. The trial is one `mirror.trial` span; its
    /// allocations and thread CPU time are added to the counts.
    pub fn trial(
        &mut self,
        tracer: &mut Tracer,
        prepared: &[PreparedLayer],
        fault_for: FaultFor,
        seed: u64,
        trial: usize,
    ) -> f64 {
        tracer.set_trial(trial as u64);
        tracer.reserve(64);
        let cpu0 = sys::thread_cpu_s();
        let (error, allocs, bytes) = sys::count_allocations(|| {
            tracer.span("mirror.trial", None, |tr| {
                let deltas = sample_deltas(
                    tr,
                    &mut self.counts,
                    prepared,
                    fault_for,
                    seed.wrapping_add(trial as u64),
                );
                tr.span("faultsim.evaluate", None, |tr| self.evaluate(tr, &deltas))
            })
        });
        self.counts.cpu_s += sys::thread_cpu_s() - cpu0;
        self.counts.allocs += allocs;
        self.counts.alloc_bytes += bytes;
        self.counts.trials += 1;
        error
    }

    /// `NetworkEval::eval_deltas_sparse` on the cached clean prefix,
    /// with the suffix forward unrolled layer by layer.
    fn evaluate(&mut self, tracer: &mut Tracer, deltas: &[Vec<WeightDelta>]) -> f64 {
        let sites = self.cache.num_sites();
        let Some(first) = deltas.iter().position(|d| !d.is_empty()) else {
            self.counts.skip += 1.0;
            return self.clean_error;
        };
        self.counts.skip += first as f64 / sites as f64;
        let Self {
            net,
            cache,
            sparse,
            cols,
            sparse_routes,
            labels,
            forward,
            row_buf,
            dirty_rows,
            undo,
            counts,
            ..
        } = self;
        dirty_rows.clear();
        dirty_rows.extend(deltas[first].iter().map(|d| d.slot as usize / cols[first]));
        dirty_rows.sort_unstable();
        dirty_rows.dedup();
        counts.dirty_rows += dirty_rows.len() as u64;
        net.apply_weight_deltas(deltas, undo);
        let pos = cache.site_layer(first);
        let logits = match net.layers()[pos].weight_bias() {
            Some((_, bias)) => {
                let patched_first = tracer.span("dnn.sparse.with_deltas", Some(first), |_| {
                    sparse[first].with_deltas(&deltas[first])
                });
                counts.with_deltas_bytes += matrix_bytes(&patched_first);
                let later: Vec<Option<SparseMatrix>> = sparse
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let ds = deltas.get(i).filter(|ds| i > first && !ds.is_empty())?;
                        let m =
                            tracer.span("dnn.sparse.with_deltas", Some(i), |_| s.with_deltas(ds));
                        counts.with_deltas_bytes += matrix_bytes(&m);
                        Some(m)
                    })
                    .collect();
                let overlay: Vec<Option<&SparseMatrix>> = sparse
                    .iter()
                    .zip(&later)
                    .map(|(s, p)| Some(p.as_ref().unwrap_or(&**s)))
                    .collect();
                let patched = tracer.span("dnn.prefix.patch", Some(first), |_| {
                    cache.patched_outputs_sparse(first, &patched_first, bias, dirty_rows, row_buf)
                });
                counts.patch_bytes += patched.iter().map(|t| 4 * t.len() as u64).sum::<u64>();
                let ctx = SuffixCtx {
                    overlay: &overlay,
                    sparse_routes,
                    counts,
                };
                forward_suffix(tracer, net, pos + 1, patched, ctx, forward)
            }
            None => tracer.span("dnn.layer.other", None, |_| {
                net.forward_batch_scratch(cache.input_batch(), forward)
            }),
        };
        let error = tracer.span("faultsim.evaluate.argmax", None, |_| {
            error_of(&logits, labels)
        });
        net.revert_weight_deltas(undo);
        error
    }
}

struct SuffixCtx<'a, 'b> {
    overlay: &'a [Option<&'b SparseMatrix>],
    sparse_routes: &'a [bool],
    counts: &'a mut Counts,
}

/// `Network::forward_suffix_sparse`, one span per layer: `dnn.gemm` for
/// each weight layer (packing its right-hand matrix and multiplying from
/// the sparse stream), `dnn.layer.other` for the rest.
fn forward_suffix(
    tracer: &mut Tracer,
    net: &Network,
    start: usize,
    xs: Vec<Tensor>,
    ctx: SuffixCtx,
    scratch: &mut ForwardScratch,
) -> Vec<Tensor> {
    let layers = net.layers();
    let mut wi: usize = layers[..start].iter().map(Layer::weight_matrix_count).sum();
    let mut cur = xs;
    for l in &layers[start..] {
        let nmat = l.weight_matrix_count();
        let sparse = if nmat == 1 {
            ctx.overlay.get(wi).copied().flatten()
        } else {
            None
        };
        cur = match sparse {
            Some(sp) if !cur.is_empty() => tracer.span("dnn.gemm", Some(wi), |_| {
                match l.weight_rhs_into(&cur, &mut scratch.cols) {
                    Some(meta) => {
                        let n = cur.len() * meta.per_cols;
                        let route = ctx.sparse_routes[wi];
                        ctx.counts.gemm_calls[wi] += 1;
                        ctx.counts.gemm_flops[wi] += 2.0 * (meta.rows * meta.k * n) as f64;
                        ctx.counts.gemm_bytes[wi] +=
                            gemm_bytes(meta.rows, meta.k, n, sp.nnz(), route);
                        l.forward_from_rhs_sparse(
                            sp,
                            &scratch.cols,
                            &meta,
                            cur.len(),
                            &mut scratch.out,
                            &mut scratch.gemm,
                        )
                    }
                    None => l.forward_batch_scratch(&cur, scratch),
                }
            }),
            _ => tracer.span("dnn.layer.other", None, |_| {
                l.forward_batch_scratch(&cur, scratch)
            }),
        };
        wi += nmat;
    }
    cur
}

/// Classification error of `logits` against `labels`, counted as
/// `NetworkEval` counts it.
fn error_of(logits: &[Tensor], labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let wrong = logits
        .iter()
        .zip(labels)
        .filter(|(l, y)| argmax(l) != **y)
        .count();
    wrong as f64 / labels.len() as f64
}

/// One mirrored DSE scheme's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeReplay {
    /// Cells the scheme stores the model in.
    pub cells: u64,
    /// Trials run before the early-stop rule decided (or the budget).
    pub trials_run: usize,
    /// Mean error over those trials.
    pub mean_error: f64,
}

/// Replays an early-stopping DSE sweep under a [`ProxyEval`].
pub struct DseMirror<'a> {
    layers: &'a [ClusteredLayer],
    eval: &'a ProxyEval,
    schemes: &'a [StorageScheme],
    trials: usize,
    seed: u64,
    early_stop: &'a EarlyStop,
    /// Shares raw encodes and clean decodes across schemes, as the
    /// engine's sweep cache does.
    cache: EncodeCache,
    /// Counts over every replayed trial.
    pub counts: Counts,
    /// Cells over every replayed scheme.
    pub cells_total: u64,
}

impl<'a> DseMirror<'a> {
    /// A mirror of the sweep described by the arguments.
    pub fn new(
        layers: &'a [ClusteredLayer],
        eval: &'a ProxyEval,
        schemes: &'a [StorageScheme],
        trials: usize,
        seed: u64,
        early_stop: &'a EarlyStop,
    ) -> Self {
        Self {
            layers,
            eval,
            schemes,
            trials,
            seed,
            early_stop,
            cache: EncodeCache::new(),
            counts: Counts::new(layers.len()),
            cells_total: 0,
        }
    }

    /// Replays scheme `s`: stores every layer (`encoding.store` spans),
    /// prepares it around its shared clean decode (`encoding.prepare`),
    /// then runs trials batch by batch until the early-stop rule decides
    /// over the trial-ordered prefix, as the engine's driver does. Each
    /// trial is one `mirror.trial` span.
    pub fn scheme(&mut self, tracer: &mut Tracer, fault_for: FaultFor, s: usize) -> SchemeReplay {
        tracer.set_trial(s as u64);
        let (layers, scheme) = (self.layers, &self.schemes[s]);
        let stored: Vec<_> = layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                tracer.span("encoding.store", Some(i), |_| {
                    self.cache.store_layer(i, l, scheme)
                })
            })
            .collect();
        let cells: u64 = stored.iter().map(|l| l.total_cells()).sum();
        self.cells_total += cells;
        let prepared: Vec<PreparedLayer> = stored
            .iter()
            .enumerate()
            .map(|(i, l)| {
                tracer.span("encoding.prepare", Some(i), |_| {
                    PreparedLayer::new(l, self.cache.clean_decode_cached(i, &layers[i], l))
                })
            })
            .collect();
        let clean: Vec<_> = prepared.iter().map(|p| p.clean().matrix.clone()).collect();
        let mut scratch = EvalScratch::default();
        let es = self.early_stop;
        let batch = es.batch.max(1);
        let mut errors: Vec<f64> = Vec::new();
        loop {
            if !errors.is_empty() {
                let mut sum = 0.0f64;
                for e in &errors {
                    sum += e;
                }
                if es.decided(sum / errors.len() as f64, errors.len()) {
                    break;
                }
            }
            if errors.len() >= self.trials {
                break;
            }
            let end = (errors.len() + batch).min(self.trials);
            for t in errors.len()..end {
                tracer.reserve(16);
                let cpu0 = sys::thread_cpu_s();
                let (error, allocs, bytes) = sys::count_allocations(|| {
                    tracer.span("mirror.trial", None, |tr| {
                        let deltas = sample_deltas(
                            tr,
                            &mut self.counts,
                            &prepared,
                            fault_for,
                            self.seed.wrapping_add(t as u64),
                        );
                        tr.span("faultsim.evaluate.proxy", None, |_| {
                            self.eval
                                .eval_deltas(s as u64, &clean, &deltas, &mut scratch)
                        })
                    })
                });
                self.counts.cpu_s += sys::thread_cpu_s() - cpu0;
                self.counts.allocs += allocs;
                self.counts.alloc_bytes += bytes;
                self.counts.trials += 1;
                errors.push(error);
            }
        }
        SchemeReplay {
            cells,
            trials_run: errors.len(),
            mean_error: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_follows_the_kernel_cutover() {
        // The kernel goes dense only strictly above the cutover, so a
        // layer exactly at it still takes the sparse walk.
        assert!(sparse_route(0.10));
        assert!(sparse_route(SPARSE_DENSE_CUTOVER));
        assert!(!sparse_route(SPARSE_DENSE_CUTOVER + 1e-9));
        assert!(!sparse_route(0.59));
    }

    #[test]
    fn gemm_bytes_add_the_densify_pass_on_the_dense_route() {
        // 4x8 weights with 10 stored entries times an 8x3 rhs.
        let sparse = gemm_bytes(4, 8, 3, 10, true);
        assert_eq!(sparse, 80 + 4 * 24 + 4 * 12);
        assert_eq!(gemm_bytes(4, 8, 3, 10, false), sparse + 2 * 4 * 32);
    }
}
