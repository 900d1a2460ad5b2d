//! Clean-prefix activation cache for fault-delta inference.
//!
//! A Monte-Carlo fault trial perturbs a handful of weight slots and asks
//! for the network's predictions. Layers *before* the earliest perturbed
//! layer see exactly the clean inputs, so their activations can be
//! computed once and reused by every trial. This cache stores, for one
//! fixed evaluation batch:
//!
//! - the clean batch activations entering every layer (and the final
//!   logits), and
//! - for each weight layer, the packed `[k, n·p]` right-hand matrix its
//!   GEMM consumes (a pure function of the clean activations).
//!
//! The clean pass can run from sparse-encoded weights
//! ([`PrefixCache::build_sparse`]; an empty overlay builds it from the
//! dense tensors). A trial then only (1) recomputes the *dirty rows* of
//! the first perturbed layer's output from its fault-patched sparse
//! matrix — one [`sparse_row_into`] per touched weight row, O(row
//! nnz·batch) instead of a full GEMM — starting from a clone of that
//! layer's cached clean output
//! ([`PrefixCache::patched_outputs_sparse`]), and (2) runs the remaining
//! suffix layers. The result is bit-identical to a full faulty forward
//! pass: [`sparse_row_into`] reproduces any row of the blocked dense
//! kernel bit for bit (see [`crate::gemm`]), untouched rows are
//! byte-copies of the clean output, and the suffix computes the same
//! fused-multiply-add chains either way.
//! This holds on every SIMD dispatch tier: the row kernels route through
//! the same tier table as the blocked GEMM, and all tiers compute the
//! identical fused-multiply-add chains (DESIGN.md §14), so a cache built
//! while one tier is active replays bit-identically under any other.
//!
//! Only "flat" networks (no [`Layer::Residual`]) are supported —
//! [`PrefixCache::build_sparse`] returns `None` otherwise and callers
//! fall back to a full forward pass.

use crate::gemm::sparse_row_into;
use crate::layer::{ForwardScratch, Layer, RhsMeta};
use crate::network::Network;
use crate::sparse::SparseMatrix;
use crate::tensor::Tensor;

/// One weight layer's cached geometry: where it sits in the network and
/// the packed right-hand matrix its GEMM consumes.
#[derive(Debug, Clone)]
struct Site {
    /// Index of the weight layer in `Network::layers`.
    layer_pos: usize,
    /// Packed `[k, n·per_cols]` input matrix (im2col patches / stacked
    /// vectors) built from the clean activations entering the layer.
    rhs: Vec<f32>,
    /// Geometry of `rhs` and the layer's output.
    meta: RhsMeta,
}

/// Cached clean forward pass of one fixed batch — see the module docs.
/// Sites are indexed like [`Network::weight_matrices`] (valid because
/// residual networks are rejected at build time, so every weight layer is
/// top-level and in execution order).
#[derive(Debug, Clone)]
pub struct PrefixCache {
    /// `acts[i]` = batch activations entering layer `i`; `acts[layers]` =
    /// final logits.
    acts: Vec<Vec<Tensor>>,
    sites: Vec<Site>,
}

impl PrefixCache {
    /// Runs one clean batched forward pass, recording every intermediate
    /// activation and each weight layer's packed right-hand matrix.
    /// Weight layer `i` (in site order, == [`Network::weight_matrices`]
    /// order) multiplies from the sparse-encoded `weights[i]` when
    /// present, reusing the site's already-packed right-hand matrix — so
    /// the clean build runs O(nnz) per weight layer. Missing / `None`
    /// entries (an empty `weights` for all of them) use the dense
    /// tensor; both are bit-identical when each present entry
    /// materializes to the layer's dense weights (see [`crate::gemm`]).
    ///
    /// Returns `None` for networks containing residual blocks (their
    /// weight layers are nested, which the row-patching path does not
    /// model) — callers fall back to full forward passes.
    pub fn build_sparse(
        net: &Network,
        inputs: &[Tensor],
        weights: &[Option<&SparseMatrix>],
        scratch: &mut ForwardScratch,
    ) -> Option<Self> {
        let layers = net.layers();
        let mut acts: Vec<Vec<Tensor>> = Vec::with_capacity(layers.len() + 1);
        acts.push(inputs.to_vec());
        let mut sites: Vec<Site> = Vec::new();
        for (pos, l) in layers.iter().enumerate() {
            if matches!(l, Layer::Residual { .. }) {
                return None;
            }
            let cur = &acts[pos];
            let mut rhs = Vec::new();
            let next = if let Some(meta) = l.weight_rhs_into(cur, &mut rhs) {
                let next = match weights.get(sites.len()).copied().flatten() {
                    Some(sp) if !cur.is_empty() => l.forward_from_rhs_sparse(
                        sp,
                        &rhs,
                        &meta,
                        cur.len(),
                        &mut scratch.out,
                        &mut scratch.gemm,
                    ),
                    _ => l.forward_batch_scratch(cur, scratch),
                };
                sites.push(Site {
                    layer_pos: pos,
                    rhs,
                    meta,
                });
                next
            } else {
                l.forward_batch_scratch(cur, scratch)
            };
            acts.push(next);
        }
        Some(Self { acts, sites })
    }

    /// Number of weight layers (== the network's weight-matrix count).
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// The network-layer index of weight layer `site`.
    pub fn site_layer(&self, site: usize) -> usize {
        self.sites[site].layer_pos
    }

    /// The cached clean logits (output of the final layer).
    // maxnvm-lint: allow(R1/index-arith): the constructor always records at least the input activation, so acts.len()-1 cannot wrap.
    pub fn clean_logits(&self) -> &[Tensor] {
        &self.acts[self.acts.len() - 1]
    }

    /// The input batch the cache was built from.
    pub fn input_batch(&self) -> &[Tensor] {
        &self.acts[0]
    }

    /// Batch size the cache was built for.
    pub fn batch_len(&self) -> usize {
        self.acts[0].len()
    }

    /// Recomputes weight layer `site`'s batch outputs under a
    /// sparse-encoded (already fault-patched) weight matrix `w` and its
    /// `bias` for the given `dirty_rows` (ascending, deduped), starting
    /// from a clone of the cached clean outputs. Each dirty row is one
    /// [`sparse_row_into`] over its stored entries against the cached
    /// right-hand matrix — O(row nnz · batch) — and bit-identical to the
    /// same row of a full batched forward under `w`'s materialization
    /// (see [`crate::gemm`]). `row_buf` is reusable staging for one
    /// output row across the batch.
    ///
    /// # Panics
    ///
    /// Panics if `w` does not match the site's geometry or a row is out
    /// of range.
    // maxnvm-lint: allow(R1/index-arith): row_buf is resized to n*p here and dirty rows are < rows per the weight-shape assert above, so o*p and sx*p slices are in range.
    pub fn patched_outputs_sparse(
        &self,
        site: usize,
        w: &SparseMatrix,
        bias: &[f32],
        dirty_rows: &[usize],
        row_buf: &mut Vec<f32>,
    ) -> Vec<Tensor> {
        let s = &self.sites[site];
        assert_eq!(
            (w.rows(), w.cols()),
            (s.meta.rows, s.meta.k),
            "sparse weight shape vs site geometry"
        );
        let mut outs = self.acts[s.layer_pos + 1].clone();
        let n = outs.len();
        let p = s.meta.per_cols;
        let total = n * p;
        row_buf.clear();
        row_buf.resize(total, 0.0);
        for &o in dirty_rows {
            let (cols, vals) = w.row(o);
            sparse_row_into(row_buf, cols, vals, &s.rhs, s.meta.k, total);
            for v in row_buf.iter_mut() {
                *v += bias[o];
            }
            for (sx, t) in outs.iter_mut().enumerate() {
                t.data_mut()[o * p..(o + 1) * p].copy_from_slice(&row_buf[sx * p..(sx + 1) * p]);
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::WeightDelta;
    use crate::zoo::lenet_mini;
    use rand::{Rng, SeedableRng};

    fn batch(seed: u64, n: usize) -> Vec<Tensor> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::from_vec(&[1, 16, 16], (0..256).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    /// Prunes ~the given fraction of each weight matrix to exact zero
    /// (smallest magnitudes first) and returns the net plus its sparse
    /// clean weights.
    fn pruned_net(seed: u64, sparsity: f64) -> (Network, Vec<SparseMatrix>) {
        let mut net = lenet_mini(seed);
        let mut mats = net.weight_matrices();
        for m in &mut mats {
            let mut mags: Vec<f32> = m.data.iter().map(|v| v.abs()).collect();
            mags.sort_by(f32::total_cmp);
            let cut = mags[((mags.len() - 1) as f64 * sparsity) as usize];
            for v in &mut m.data {
                if v.abs() <= cut {
                    *v = 0.0;
                }
            }
        }
        net.set_weight_matrices(&mats);
        let sparse = mats
            .iter()
            .map(|m| SparseMatrix::from_dense(m.rows, m.cols, &m.data))
            .collect();
        (net, sparse)
    }

    /// The whole sparse trial path — sparse clean build, sparse dirty-row
    /// patching of the first faulty site, sparse suffix with every later
    /// faulty site's own patched stream — must reproduce the dense full
    /// faulty forward bit for bit, for faults in the first, middle, last,
    /// and multiple layers at once.
    #[test]
    fn sparse_prefix_path_is_bit_exact_with_dense() {
        let (net, sparse) = pruned_net(7, 0.7);
        let xs = batch(3, 5);
        let mut scratch = ForwardScratch::default();
        let overlay: Vec<Option<&SparseMatrix>> = sparse.iter().map(Some).collect();
        let dense_cache =
            PrefixCache::build_sparse(&net, &xs, &[], &mut scratch).expect("flat network");
        let cache =
            PrefixCache::build_sparse(&net, &xs, &overlay, &mut scratch).expect("flat network");
        for (a, b) in cache.clean_logits().iter().zip(dense_cache.clean_logits()) {
            assert_eq!(a.data(), b.data(), "sparse clean build must be bit-exact");
        }

        let mats = net.weight_matrices();
        let nmats = mats.len();
        let delta = |slot: u32| WeightDelta {
            slot,
            value: 0.75 + slot as f32 * 0.1,
        };
        // Faulty slots keyed by weight-matrix index: first conv, middle
        // conv, last fc, and sites 1, 2 and last together.
        let cases: Vec<Vec<(usize, Vec<u32>)>> = vec![
            vec![(0, vec![3, 9])],
            vec![(1, vec![11, 95])],
            vec![(nmats - 1, vec![1])],
            vec![(1, vec![40]), (2, vec![7]), (nmats - 1, vec![0])],
        ];
        for case in &cases {
            let mut deltas: Vec<Vec<WeightDelta>> = vec![Vec::new(); nmats];
            for (site, slots) in case {
                deltas[*site] = slots.iter().map(|&slot| delta(slot)).collect();
            }
            let mut faulty = net.clone();
            let mut undo = Vec::new();
            faulty.apply_weight_deltas(&deltas, &mut undo);
            let full = faulty.forward_batch_scratch(&xs, &mut scratch);

            // Every faulty site gets its own delta-patched stream; clean
            // sites keep the clean twins.
            let patched_sparse: Vec<Option<SparseMatrix>> = sparse
                .iter()
                .zip(&deltas)
                .map(|(s, ds)| (!ds.is_empty()).then(|| s.with_deltas(ds)))
                .collect();
            let trial_overlay: Vec<Option<&SparseMatrix>> = sparse
                .iter()
                .zip(&patched_sparse)
                .map(|(s, p)| Some(p.as_ref().unwrap_or(s)))
                .collect();
            let first = case[0].0;
            let pos = cache.site_layer(first);
            let (_, b) = faulty.layers()[pos].weight_bias().expect("weight layer");
            let mut rows: Vec<usize> = deltas[first]
                .iter()
                .map(|d| d.slot as usize / mats[first].cols)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            let mut row_buf = Vec::new();
            let first_sparse = trial_overlay[first].expect("faulty site");
            let patched = cache.patched_outputs_sparse(first, first_sparse, b, &rows, &mut row_buf);
            let logits =
                faulty.forward_suffix_sparse(pos + 1, patched, &trial_overlay, &mut scratch);
            assert_eq!(full.len(), logits.len());
            for (a, b) in full.iter().zip(&logits) {
                assert_eq!(a.data(), b.data(), "sparse prefix path must be bit-exact");
            }
        }
    }

    #[test]
    fn clean_logits_match_forward_batch() {
        let net = lenet_mini(9);
        let xs = batch(5, 4);
        let mut scratch = ForwardScratch::default();
        let cache = PrefixCache::build_sparse(&net, &xs, &[], &mut scratch).expect("flat network");
        let direct = net.forward_batch(&xs);
        for (a, b) in cache.clean_logits().iter().zip(&direct) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(cache.batch_len(), 4);
    }

    #[test]
    fn residual_networks_are_rejected() {
        let net = Network::new(
            "res",
            vec![Layer::Residual {
                body: vec![Layer::ReLU],
                shortcut: vec![],
            }],
        );
        let xs = vec![Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0])];
        assert!(
            PrefixCache::build_sparse(&net, &xs, &[], &mut ForwardScratch::default()).is_none()
        );
    }

    #[test]
    fn apply_and_revert_deltas_round_trip() {
        let mut net = lenet_mini(4);
        let before = net.weight_matrices();
        let deltas = vec![
            vec![WeightDelta {
                slot: 2,
                value: 7.0,
            }],
            vec![],
            vec![
                WeightDelta {
                    slot: 5,
                    value: -7.0,
                },
                WeightDelta {
                    slot: 5,
                    value: 1.0,
                },
            ],
        ];
        let mut undo = Vec::new();
        net.apply_weight_deltas(&deltas, &mut undo);
        let mid = net.weight_matrices();
        assert_eq!(mid[0].data[2], 7.0);
        assert_eq!(mid[2].data[5], 1.0, "later delta wins");
        net.revert_weight_deltas(&undo);
        assert_eq!(net.weight_matrices(), before);
    }
}
