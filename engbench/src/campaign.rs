//! Checks shared by the campaign workloads: a campaign ran every trial,
//! and the mirror reproduces the trials it replays bit for bit.

use crate::mirror::{FaultFor, NetMirror};
use crate::report::Report;
use crate::trace::Tracer;
use maxnvm_encoding::storage::PreparedLayer;
use maxnvm_faultsim::CampaignResult;

/// Checks that a campaign asked for `requested` trials completed all of
/// them, with none failed or cancelled.
pub fn check_complete(report: &mut Report, r: &CampaignResult, requested: usize, what: &str) {
    report.check(
        r.completed_trials == requested && r.failed_trials.is_empty() && !r.cancelled,
        || {
            format!(
                "{what}: {} of {requested} trials completed, {} failed, cancelled {}",
                r.completed_trials,
                r.failed_trials.len(),
                r.cancelled
            )
        },
    );
}

/// Replays trials `sample` of the campaign seeded `seed` whose engine
/// result is `engine` and checks each error bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    mirror: &mut NetMirror,
    prepared: &[PreparedLayer],
    fault_for: FaultFor,
    seed: u64,
    engine: &CampaignResult,
    sample: &[usize],
    what: &str,
) {
    for &t in sample {
        let error = mirror.trial(tracer, prepared, fault_for, seed, t);
        let want = engine.errors.get(t).copied();
        report.check(want.map(f64::to_bits) == Some(error.to_bits()), || {
            format!("{what}: trial {t} mirrored error {error} vs engine {want:?}")
        });
    }
}
