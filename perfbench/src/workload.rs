//! The three workloads, driven only through the layers' public entry
//! points, and the end-to-end measurement over them.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dirsim::{BroadcastSimulator, SimConfig};
use dirsim_mem::CacheGeometry;
use dirsim_obs::{Json, NoopRecorder, Recorder};
use dirsim_sweep::{run_sweep, CellRecord, Store, SweepOptions, SweepSpec};
use dirsim_trace::{open_trace, Scenario, TraceSource};

use crate::check::{self, Expected, Op};
use crate::fixture::Inputs;
use crate::host;

/// References in the corpus workload's DTR3 corpus.
pub const CORPUS_REFS: u64 = 250_000;
/// Caches of the corpus workload (pops is a 4-process machine).
pub const CORPUS_CACHES: u32 = 4;
/// Worker threads of the grid workload's `run_sweep`.
pub const GRID_WORKERS: usize = 2;
/// References the wide workload streams from synth.
pub const WIDE_REFS: u64 = 50_000;
/// Caches of the wide workload: one per process of `wide.scn`.
pub const WIDE_CACHES: u32 = 128;
// The wide workload exists to run past the table kernels' cache limit.
const _: () = assert!(WIDE_CACHES > dirsim::kernel::MAX_KERNEL_CACHES);
/// Finite per-cache geometry of the wide workload: small enough that the
/// caches fill and evict within one repetition's references.
pub const WIDE_GEOMETRY: CacheGeometry = CacheGeometry { sets: 32, ways: 4 };

/// Set-up-only rounds after each timed repetition, on top of the
/// repetition's own set-up. A burst of them takes well under a
/// millisecond, so it sees the host as the repetition just before it did.
const SETUP_ROUNDS_PER_REP: usize = 20;
/// `setup_s` is the median over the set-up bursts of the fastest
/// 1/`CALM_FRACTION` of the repetitions.
const CALM_FRACTION: usize = 10;
/// Timed repetitions per run, at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DTR3 corpus → `open_trace` → one 16-scheme `BroadcastSimulator::run`.
    Corpus,
    /// The 48-cell paper grid through `run_sweep` into a fresh store.
    Grid,
    /// 16 schemes over a 128-CPU synth stream with finite caches.
    Wide,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "corpus" => Some(Workload::Corpus),
            "grid" => Some(Workload::Grid),
            "wide" => Some(Workload::Wide),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::Grid => "grid",
            Workload::Wide => "wide",
        }
    }

    /// Threads the workload's process simulates on.
    pub fn threads(self) -> usize {
        match self {
            Workload::Grid => GRID_WORKERS,
            Workload::Corpus | Workload::Wide => 1,
        }
    }
}

/// Engine configuration of the corpus and wide workloads (and of the
/// match-machine oracle, with `kernels` switched off).
pub fn sim_config(workload: Workload) -> SimConfig {
    SimConfig {
        geometry: (workload == Workload::Wide).then_some(WIDE_GEOMETRY),
        ..SimConfig::default()
    }
}

/// One timed repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Seconds before the first reference is stepped.
    pub setup_s: f64,
    /// Seconds from the first public call to the last result.
    pub wall_s: f64,
    /// Scheme × reference steps completed (Σ `refs` over all results).
    pub steps: u64,
    /// User + system CPU seconds the process spent in the repetition.
    pub cpu_s: f64,
    /// Peak resident set during the repetition, in MiB.
    pub peak_rss_mb: f64,
    /// Every op's digest.
    pub ops: Vec<Op>,
    /// The grid's stored records (empty for the other workloads).
    pub records: Vec<CellRecord>,
}

/// A workload set up and ready to step its first reference.
enum Prepared {
    Broadcast {
        engine: BroadcastSimulator,
        source: Box<dyn TraceSource + Send>,
        caches: u32,
    },
    Grid {
        spec: SweepSpec,
        store: Store,
    },
}

fn prepare(
    workload: Workload,
    inputs: &Inputs,
    recorder: &Arc<dyn Recorder>,
) -> Result<Prepared, String> {
    let engine = || BroadcastSimulator::new(sim_config(workload)).recorder(Arc::clone(recorder));
    Ok(match workload {
        Workload::Corpus => Prepared::Broadcast {
            source: open_trace(inputs.corpus()).map_err(|e| format!("corpus: {e}"))?,
            engine: engine(),
            caches: CORPUS_CACHES,
        },
        Workload::Wide => {
            let wide = Scenario::from_file(inputs.scenario("wide")).map_err(|e| e.to_string())?;
            Prepared::Broadcast {
                source: Box::new(wide.source(WIDE_REFS)),
                engine: engine(),
                caches: WIDE_CACHES,
            }
        }
        Workload::Grid => {
            let text = fs::read_to_string(inputs.grid_spec()).map_err(|e| e.to_string())?;
            Prepared::Grid {
                spec: SweepSpec::parse(&text).map_err(|e| e.to_string())?,
                store: Store::open(store_path(inputs)).map_err(|e| e.to_string())?,
            }
        }
    })
}

/// Where a grid repetition's fresh store lives.
fn store_path(inputs: &Inputs) -> PathBuf {
    inputs.dir.join("store.jsonl")
}

/// The lineup of 16 schemes: the `schemes` axis of the grid spec.
pub fn lineup() -> Vec<dirsim_protocol::Scheme> {
    SweepSpec::parse(crate::fixture::GRID_SPEC)
        .expect("the committed grid spec parses")
        .schemes
}

/// Times one set-up alone: everything [`run_once`] does before the first
/// reference is stepped.
fn setup_once(workload: Workload, inputs: &Inputs) -> Result<f64, String> {
    remove_store(inputs)?;
    let recorder: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let start = Instant::now();
    let prepared = prepare(workload, inputs, &recorder)?;
    let setup_s = start.elapsed().as_secs_f64();
    drop(prepared);
    Ok(setup_s)
}

fn remove_store(inputs: &Inputs) -> Result<(), String> {
    match fs::remove_file(store_path(inputs)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.to_string()),
        _ => Ok(()),
    }
}

/// Runs the workload once through its public entry points, reporting
/// into `recorder` wherever the API takes one.
pub fn run_once(
    workload: Workload,
    inputs: &Inputs,
    recorder: Arc<dyn Recorder>,
) -> Result<Rep, String> {
    remove_store(inputs)?;
    let schemes = lineup();
    host::reset_peak_rss()?;
    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let prepared = prepare(workload, inputs, &recorder)?;
    let setup_s = start.elapsed().as_secs_f64();
    let (steps, ops, records) = match prepared {
        Prepared::Broadcast {
            engine,
            source,
            caches,
        } => {
            let results = engine
                .run(&schemes, caches, source)
                .map_err(|e| e.to_string())?;
            let steps = results.iter().map(|r| r.refs).sum();
            (
                steps,
                results.iter().map(check::result_op).collect(),
                Vec::new(),
            )
        }
        Prepared::Grid { spec, mut store } => {
            let opts = SweepOptions {
                workers: GRID_WORKERS,
                progress: false,
                recorder,
            };
            run_sweep(&spec, &mut store, &opts).map_err(|e| e.to_string())?;
            let records = store.records().to_vec();
            let steps = records.iter().map(|r| r.refs).sum();
            (
                steps,
                records.iter().map(check::record_op).collect(),
                records,
            )
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let peak_rss_mb = host::peak_rss_mib()?;
    remove_store(inputs)?;
    Ok(Rep {
        setup_s,
        wall_s,
        steps,
        cpu_s,
        peak_rss_mb,
        ops,
        records,
    })
}

/// Ops attempted and failed over a run's repetitions.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    attempted: usize,
    /// Ops that returned an error or disagreed with the expected digests.
    failed: usize,
}

impl Tally {
    /// Checks one repetition's outcome; returns the repetition if it ran.
    pub fn check(&mut self, expected: &Expected, rep: Result<Rep, String>) -> Option<Rep> {
        match rep {
            Ok(rep) => {
                self.ops(expected, &rep.ops);
                Some(rep)
            }
            Err(e) => {
                eprintln!("perfbench: repetition failed: {e}");
                self.attempted += expected.attempted();
                self.failed += expected.attempted();
                None
            }
        }
    }

    /// Checks one set of ops against `expected`.
    pub fn ops(&mut self, expected: &Expected, ops: &[Op]) {
        self.attempted += expected.attempted();
        self.failed += expected.failed(ops);
    }

    /// The run's result object, the benchmark's last output line.
    pub fn result(&self, metrics: &[(&str, f64, &str)]) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i128)),
            ("failed".into(), Json::Int(self.failed as i128)),
            ("metrics".into(), metrics_json(metrics)),
        ])
    }

    /// Failed ops ÷ ops.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), dirsim_obs::json::float(*value)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]);
                ((*name).to_string(), entry)
            })
            .collect(),
    )
}

/// What a run prints: records (each stamped with provenance) and the
/// final result object.
#[derive(Debug)]
pub struct Outcome {
    /// JSON-lines records, in print order.
    pub records: Vec<Json>,
    /// The result object.
    pub result: Json,
}

/// An untimed warm-up repetition, then timed repetitions, each followed
/// by set-up-only rounds, until `seconds` have passed (at least
/// [`MIN_REPS`]). Returns the repetitions that ran and, for each, its
/// set-up time followed by the set-up-only rounds after it.
fn repeat(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Vec<Rep>, Vec<Vec<f64>>), String> {
    // Warm-up: lazy set-up and the page cache settle before timing.
    tally.check(
        &inputs.expected,
        run_once(workload, inputs, Arc::new(NoopRecorder)),
    );
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut tries = 0;
    while tries < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        let rep = run_once(workload, inputs, Arc::new(NoopRecorder));
        if let Some(mut rep) = tally.check(&inputs.expected, rep) {
            // Ops and records are checked; keeping them would make
            // `peak_rss_mb` grow with the number of repetitions.
            rep.ops = Vec::new();
            rep.records = Vec::new();
            let mut burst = vec![rep.setup_s];
            for _ in 0..SETUP_ROUNDS_PER_REP {
                burst.push(setup_once(workload, inputs)?);
            }
            reps.push(rep);
            setups.push(burst);
        }
    }
    if reps.is_empty() {
        return Err("every repetition failed".into());
    }
    Ok((reps, setups))
}

/// The end-to-end measurement (`--trace 0`).
///
/// `wall_s` and `steps_per_s` are those of the fastest repetition. On a
/// shared host the same repetition runs at one of two speeds, about 1.6x
/// apart, in phases from under a second to minutes long, so a median
/// follows the host's phase rather than the program. Contention only adds
/// time, and a run of many short repetitions almost always catches the
/// uncontended speed at least once; a change to the program moves that
/// fastest repetition as much as any other. `setup_s` is the median of
/// the set-ups run right after the fastest tenth of the repetitions, so
/// it too is taken on the uncontended host.
pub fn measure(workload: Workload, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (reps, bursts) = repeat(workload, inputs, seconds, &mut tally)?;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    let mut by_speed: Vec<usize> = (0..reps.len()).collect();
    by_speed.sort_by(|&a, &b| reps[a].wall_s.total_cmp(&reps[b].wall_s));
    let fastest = &reps[by_speed[0]];
    let calm = reps.len().div_ceil(CALM_FRACTION);
    let calm_setups: Vec<f64> = by_speed[..calm]
        .iter()
        .flat_map(|&i| bursts[i].iter().copied())
        .collect();
    let setups: Vec<f64> = bursts.concat();
    let metrics = [
        (
            "steps_per_s",
            fastest.steps as f64 / fastest.wall_s,
            "steps/s",
        ),
        ("wall_s", fastest.wall_s, "s"),
        ("setup_s", host::median(&calm_setups), "s"),
        ("peak_rss_mb", host::median(&peaks), "MiB"),
    ];
    let mut summary = metrics.to_vec();
    summary.push(("error_rate", tally.error_rate(), "ratio"));
    let record = Json::Obj(vec![
        ("record".into(), Json::Str("end_to_end".into())),
        ("workload".into(), Json::Str(workload.name().into())),
        ("reps".into(), Json::Int(reps.len() as i128)),
        ("setup_samples".into(), Json::Int(calm_setups.len() as i128)),
        (
            "setup_s_all_p50".into(),
            dirsim_obs::json::float(host::median(&setups)),
        ),
        (
            "wall_s_p50".into(),
            dirsim_obs::json::float(host::median(&walls)),
        ),
        (
            "wall_s_p25".into(),
            dirsim_obs::json::float(host::quantile(&walls, 0.25)),
        ),
        (
            "wall_s_p75".into(),
            dirsim_obs::json::float(host::quantile(&walls, 0.75)),
        ),
        (
            "wall_s_p90".into(),
            dirsim_obs::json::float(host::quantile(&walls, 0.9)),
        ),
        ("metrics".into(), metrics_json(&summary)),
    ]);
    Ok(Outcome {
        records: vec![record],
        result: tally.result(&metrics),
    })
}
