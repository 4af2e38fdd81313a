//! The offline paper pipeline, in-process: acquisition campaign on the
//! simulated Haswell-EP → dataset → Algorithm 1 selection → Eq.-1
//! OLS/HC3 fit → 10-fold cross-validation, with a span per stage and a
//! check of its answers against the paper and an independent
//! recomputation.

use crate::trace::{SpanId, Tracer};
use pmc_cpusim::{Machine, MachineConfig};
use pmc_events::scheduler::CounterScheduler;
use pmc_events::PapiEvent;
use pmc_model::acquisition::{Campaign, ExperimentPlan};
use pmc_model::dataset::Dataset;
use pmc_model::model::PowerModel;
use pmc_model::selection::select_events;
use pmc_model::validation::cross_validate_model;
use pmc_stats::{CvOutcome, KFold};
use std::time::{Duration, Instant};

/// The simulated machine's seed the paper reproduction uses.
pub const PAPER_SEED: u64 = 6;

/// Table I: the six counters Algorithm 1 selects at 2400 MHz, in
/// selection order.
pub const PAPER_SIX: [PapiEvent; 6] = [
    PapiEvent::PRF_DM,
    PapiEvent::REF_CYC,
    PapiEvent::STL_ICY,
    PapiEvent::TLB_IM,
    PapiEvent::L3_LDM,
    PapiEvent::FUL_CCY,
];

const SELECTION_FREQ_MHZ: u32 = 2400;
const CV_FOLDS: usize = 10;

pub struct Pipeline {
    pub data: Dataset,
    pub total_cores: u32,
    pub events: Vec<PapiEvent>,
    pub cv_seed: u64,
    pub cv: Vec<CvOutcome>,
    pub wall: Duration,
}

/// The simulated machine and its campaign's dataset.
pub fn acquire(machine_seed: u64, tracer: &mut Tracer, id: u64, parent: SpanId) -> (Dataset, u32) {
    let machine = Machine::new(MachineConfig::haswell_ep(machine_seed));
    let s = tracer.begin("acquisition.campaign", id, parent);
    let profiles = Campaign::new(&machine, ExperimentPlan::paper_plan())
        .run()
        .expect("the paper campaign runs on the simulator");
    tracer.end(s);
    let total_cores = machine.config().total_cores();
    let s = tracer.begin("dataset.assemble", id, parent);
    let data = Dataset::from_profiles(&profiles, total_cores).expect("campaign profiles assemble");
    tracer.end(s);
    (data, total_cores)
}

/// One full pipeline run on the paper machine, with the given
/// cross-validation shuffle seed.
pub fn run(cv_seed: u64, tracer: &mut Tracer, id: u64) -> Result<Pipeline, String> {
    let t0 = Instant::now();
    let root = tracer.begin("pipeline", id, SpanId::NONE);
    let (data, total_cores) = acquire(PAPER_SEED, tracer, id, root);
    let s = tracer.begin("selection.select", id, root);
    let report = select_events(
        &data.at_frequency(SELECTION_FREQ_MHZ),
        PapiEvent::ALL,
        PAPER_SIX.len(),
    )
    .map_err(|e| format!("selection: {e}"))?;
    tracer.end(s);
    let events = report.selected_events();
    let s = tracer.begin("model.fit", id, root);
    PowerModel::fit(&data, &events).map_err(|e| format!("fit: {e}"))?;
    tracer.end(s);
    let s = tracer.begin("validation.cv", id, root);
    let (_, cv) = cross_validate_model(&data, &events, CV_FOLDS, cv_seed)
        .map_err(|e| format!("cross-validation: {e}"))?;
    tracer.end(s);
    tracer.end(root);
    Ok(Pipeline {
        data,
        total_cores,
        events,
        cv_seed,
        cv,
        wall: t0.elapsed(),
    })
}

/// Seconds of untimed pipeline runs before any timed set-up. The 2-vCPU
/// VM this benchmark was built on runs a pipeline ~1.8x slower for the
/// first ~1.2 s of work after a few idle seconds (0.23–0.26 s against
/// 0.12–0.15 s), so set-up timed straight after an idle stretch
/// measures the host waking up, not the program.
const WARM_UP_S: f64 = 2.0;

/// Runs pipelines back to back, untimed and unchecked, for `WARM_UP_S`.
pub fn warm_up() -> Result<(), String> {
    let start = Instant::now();
    let mut quiet = Tracer::new(start, false);
    while start.elapsed().as_secs_f64() < WARM_UP_S {
        run(0, &mut quiet, 0)?;
    }
    Ok(())
}

/// The pipeline's answers: the paper's six counters, and per-fold CV
/// MAPEs bitwise equal to a recomputation from the same folds.
pub fn check(p: &Pipeline) -> Result<(), String> {
    if p.events != PAPER_SIX {
        return Err(format!(
            "selected {:?}, the paper selects {:?}",
            p.events, PAPER_SIX
        ));
    }
    let kfold = KFold::new(p.data.len(), CV_FOLDS, p.cv_seed).map_err(|e| e.to_string())?;
    if kfold.folds().len() != p.cv.len() {
        return Err("cross-validation returned the wrong number of folds".into());
    }
    for (fold, got) in kfold.folds().iter().zip(&p.cv) {
        let model = PowerModel::fit(&p.data.subset(&fold.train), &p.events)
            .map_err(|e| format!("reference fold fit: {e}"))?;
        let held_out = p.data.subset(&fold.validate);
        let want = pmc_stats::mape(&held_out.power(), &model.predict(&held_out))
            .map_err(|e| e.to_string())?;
        if want.to_bits() != got.mape.to_bits() {
            return Err(format!("fold MAPE {} != reference {want}", got.mape));
        }
    }
    Ok(())
}

/// The largest prefix of the selection order that one online counter
/// group can read (what `pmc-serve` accepts), fitted on the dataset.
pub fn servable_model(p: &Pipeline) -> PowerModel {
    let scheduler = CounterScheduler::haswell_default();
    let mut events = p.events.clone();
    while scheduler.validate_single_run(&events).is_err() {
        events.pop();
    }
    PowerModel::fit(&p.data, &events).expect("a prefix of a fitted selection fits")
}
