//! Timing wrappers passed through the engine's public extension traits:
//! an [`AccuracyEval`] that times every evaluation and a
//! [`CheckpointStore`] that times every snapshot write. Both forward
//! every call unchanged, so the engine's results stay byte-identical.

use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_faultsim::evaluate::{EvalScratch, SparseModel};
use maxnvm_faultsim::{AccuracyEval, CheckpointStore, EngineError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall time and count of the evaluations the engine made.
#[derive(Debug, Default)]
pub struct EvalCounters {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl EvalCounters {
    /// Evaluation calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean microseconds per evaluation call (0 without calls).
    pub fn mean_us(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            0.0
        } else {
            self.ns.load(Ordering::Relaxed) as f64 / calls as f64 / 1e3
        }
    }
}

/// Times every evaluation of the wrapped evaluator.
pub struct TimingEval {
    inner: Arc<dyn AccuracyEval + Send + Sync>,
    counters: Arc<EvalCounters>,
}

impl TimingEval {
    /// Wraps `inner`, adding to `counters`.
    pub fn new(inner: Arc<dyn AccuracyEval + Send + Sync>, counters: Arc<EvalCounters>) -> Self {
        Self { inner, counters }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.counters
            .ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl AccuracyEval for TimingEval {
    fn baseline_error(&self) -> f64 {
        self.inner.baseline_error()
    }

    fn eval(&self, mats: &[LayerMatrix]) -> f64 {
        self.timed(|| self.inner.eval(mats))
    }

    fn eval_scratch(&self, mats: &[LayerMatrix], scratch: &mut EvalScratch) -> f64 {
        self.timed(|| self.inner.eval_scratch(mats, scratch))
    }

    fn eval_deltas(
        &self,
        key: u64,
        clean: &[LayerMatrix],
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        self.timed(|| self.inner.eval_deltas(key, clean, deltas, scratch))
    }

    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        self.timed(|| self.inner.eval_deltas_sparse(key, clean, deltas, scratch))
    }
}

/// What the timing store saw.
#[derive(Debug, Default, Clone)]
pub struct StoreLog {
    /// Duration (seconds) and size (bytes) of every snapshot write.
    pub writes: Vec<(f64, usize)>,
    /// When the first write to each snapshot path started — for a
    /// supervised stream, the end of its wait in the queue.
    pub first_write: BTreeMap<PathBuf, Instant>,
}

/// Times every snapshot write of the wrapped store.
#[derive(Debug)]
pub struct TimingStore {
    inner: Arc<dyn CheckpointStore>,
    log: Arc<Mutex<StoreLog>>,
}

impl TimingStore {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn CheckpointStore>, log: Arc<Mutex<StoreLog>>) -> Self {
        Self { inner, log }
    }
}

impl CheckpointStore for TimingStore {
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError> {
        let start = Instant::now();
        let out = self.inner.write_atomic(path, text);
        let secs = start.elapsed().as_secs_f64();
        let mut log = self.log.lock().expect("store log poisoned");
        log.writes.push((secs, text.len()));
        log.first_write.entry(path.to_path_buf()).or_insert(start);
        out
    }

    fn read(&self, path: &Path) -> Result<String, EngineError> {
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> Result<(), EngineError> {
        self.inner.remove(path)
    }
}
