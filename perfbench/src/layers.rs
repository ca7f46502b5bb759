//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Untraced and traced repetitions of the whole workload alternate; the
//! traced ones attach a `MetricsRegistry` wherever the API takes a
//! recorder (`BroadcastSimulator::recorder`, `SweepOptions::recorder`),
//! which gives the engine's phase times and lane counts and, from the
//! untraced/traced pair, the tracing overhead. Then each stage on the
//! workload's path is replayed on its own, on the same inputs, and timed
//! from here. A layer that is not on the workload's path reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dirsim::broadcast::DEFAULT_CHUNK;
use dirsim::obs::MetricsRegistry;
use dirsim::{BroadcastSimulator, ExecutionMode, Experiment, NamedWorkload, SimConfig};
use dirsim_obs::{Json, NoopRecorder, Recorder};
use dirsim_protocol::Scheme;
use dirsim_sweep::{CellInput, Store, SweepSource, SweepSpec};
use dirsim_trace::source::collect_all;
use dirsim_trace::{open_trace, IterSource, MemRef, Scenario, TraceSource};

use crate::check::{self, Op};
use crate::fixture::Inputs;
use crate::host::{median, quantile};
use crate::workload::{
    self, lineup, run_once, Outcome, Rep, Tally, Workload, CORPUS_CACHES, GRID_WORKERS,
    WIDE_CACHES, WIDE_REFS,
};

/// Every per-layer metric: name, layer (this repo's module), unit.
pub const LAYER_METRICS: [(&str, &str, &str); 26] = [
    ("synth.refs_per_s", "trace.synth", "refs/s"),
    ("synth.busy_s", "trace.synth", "s"),
    ("synth.share", "trace.synth", "ratio"),
    ("decode.refs_per_s", "trace", "refs/s"),
    ("decode.mmap_refs_per_s", "trace", "refs/s"),
    ("decode.busy_s", "trace", "s"),
    ("decode.share", "trace", "ratio"),
    ("step.steps_per_s", "core", "steps/s"),
    ("step.busy_s", "core", "s"),
    ("step.kernel_lanes", "core", "count"),
    ("step.match_lanes", "core", "count"),
    ("pipeline.decode_s", "core", "s"),
    ("pipeline.step_s", "core", "s"),
    ("pipeline.merge_s", "core", "s"),
    ("pipeline.unattributed_s", "core", "s"),
    ("pipeline.unattributed_share", "core", "ratio"),
    ("mem.finite_extra_s", "mem", "s"),
    ("sweep.spec_s", "sweep", "s"),
    ("store.open_s", "sweep", "s"),
    ("sweep.cell_s_p50", "sweep", "s"),
    ("sweep.cell_s_p75", "sweep", "s"),
    ("sweep.pool_efficiency", "sweep", "ratio"),
    ("store.append_s_p50", "sweep", "s"),
    ("store.append_s_p75", "sweep", "s"),
    ("obs.overhead", "obs", "ratio"),
    ("process.cpu_s", "process", "s"),
];

/// Samples behind the medians of the sub-millisecond grid set-up stages.
const SETUP_SAMPLES: usize = 25;
/// Times each whole-input stage replay runs; the fastest is reported.
const REPLAYS: usize = 5;

type Values = BTreeMap<&'static str, f64>;

/// Phase sums and lane counts one registry saw.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    decode: f64,
    step: f64,
    merge: f64,
    kernel_lanes: u64,
}

impl Phases {
    fn of(registry: &MetricsRegistry) -> Phases {
        let sum = |phase: &str| {
            registry
                .histogram_summary("phase_seconds", &[("phase", phase)])
                .map_or(0.0, |h| h.sum)
        };
        Phases {
            decode: sum("decode"),
            step: sum("step"),
            merge: sum("merge"),
            kernel_lanes: registry.counter_value("kernel_lanes", &[]).unwrap_or(0),
        }
    }

    fn total(&self) -> f64 {
        self.decode + self.step + self.merge
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs a stage replay [`REPLAYS`] times; returns the last output and
/// the fastest time, the estimate the end-to-end metrics use too.
fn fastest<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..REPLAYS {
        let (next, secs) = timed(&mut f);
        out = next;
        best = best.min(secs);
    }
    (out, best)
}

/// The fastest of a set of times.
fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The traced measurement (`--trace 1`).
pub fn measure(workload: Workload, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut values = Values::new();
    for (name, _, _) in LAYER_METRICS {
        values.insert(name, 0.0);
    }

    // Alternate untraced and traced repetitions for half the budget.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Phases)> = Vec::new();
    tally.check(
        &inputs.expected,
        run_once(workload, inputs, Arc::new(NoopRecorder)),
    );
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let plain = run_once(workload, inputs, Arc::new(NoopRecorder));
        let registry = Arc::new(MetricsRegistry::new());
        let recorder: Arc<dyn Recorder> = Arc::clone(&registry) as Arc<dyn Recorder>;
        let observed = run_once(workload, inputs, recorder);
        let plain = tally.check(&inputs.expected, plain);
        let observed = tally.check(&inputs.expected, observed);
        match (plain, observed) {
            (Some(p), Some(o)) => {
                untraced.push(p);
                traced.push((o, Phases::of(&registry)));
            }
            _ if start.elapsed().as_secs_f64() > seconds => {
                return Err("traced repetitions keep failing".into());
            }
            _ => {}
        }
    }
    let wall = min(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = min(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>());
    values.insert("obs.overhead", traced_wall / wall - 1.0);
    values.insert(
        "process.cpu_s",
        median(&untraced.iter().map(|r| r.cpu_s).collect::<Vec<_>>()),
    );

    let schemes = lineup();
    match workload {
        Workload::Corpus | Workload::Wide => {
            let pick = |f: fn(&Phases) -> f64| {
                median(&traced.iter().map(|(_, p)| f(p)).collect::<Vec<_>>())
            };
            let unattributed = median(
                &traced
                    .iter()
                    .map(|(r, p)| r.wall_s - p.total())
                    .collect::<Vec<_>>(),
            );
            values.insert("pipeline.decode_s", pick(|p| p.decode));
            values.insert("pipeline.step_s", pick(|p| p.step));
            values.insert("pipeline.merge_s", pick(|p| p.merge));
            values.insert("pipeline.unattributed_s", unattributed);
            values.insert("pipeline.unattributed_share", unattributed / traced_wall);
            let lanes = traced.last().map_or(0, |(_, p)| p.kernel_lanes);
            values.insert("step.kernel_lanes", lanes as f64);
            values.insert("step.match_lanes", (schemes.len() as u64 - lanes) as f64);
            if workload == Workload::Corpus {
                corpus_layers(inputs, &schemes, wall, &mut values, &mut tally)?;
            } else {
                wide_layers(inputs, &schemes, wall, &mut values, &mut tally)?;
            }
        }
        Workload::Grid => {
            let records = &untraced.last().expect("at least two pairs ran").records;
            let run_sweep_wall = median(
                &untraced
                    .iter()
                    .map(|r| r.wall_s - r.setup_s)
                    .collect::<Vec<_>>(),
            );
            grid_layers(
                inputs,
                wall,
                run_sweep_wall,
                records,
                &mut values,
                &mut tally,
            )?;
        }
    }

    let records: Vec<Json> = LAYER_METRICS
        .iter()
        .map(|(name, layer, unit)| {
            Json::Obj(vec![
                ("record".into(), Json::Str("layer".into())),
                ("workload".into(), Json::Str(workload.name().into())),
                ("layer".into(), Json::Str((*layer).into())),
                ("name".into(), Json::Str((*name).into())),
                ("value".into(), dirsim_obs::json::float(values[name])),
                ("unit".into(), Json::Str((*unit).into())),
            ])
        })
        .collect();
    let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
        .iter()
        .map(|(name, _, unit)| (*name, values[name], *unit))
        .collect();
    Ok(Outcome {
        records,
        result: tally.result(&metrics),
    })
}

/// Drains a trace file through `open_trace` the way the engine's decode
/// stage does (borrowed chunks when the source has them); returns the
/// reference count.
fn drain_file(path: &std::path::Path) -> Result<u64, String> {
    let mut source = open_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut refs = 0u64;
    if let Some(borrowed) = source.borrowed() {
        loop {
            let chunk = borrowed
                .next_chunk(DEFAULT_CHUNK)
                .map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                return Ok(refs);
            }
            refs += black_box(chunk).len() as u64;
        }
    }
    drain(source)
}

/// Drains any source chunk by chunk; returns the reference count.
fn drain(mut source: impl TraceSource) -> Result<u64, String> {
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
    let mut refs = 0u64;
    while source
        .read_chunk(&mut buf, DEFAULT_CHUNK)
        .map_err(|e| e.to_string())?
        > 0
    {
        refs += black_box(&buf).len() as u64;
    }
    Ok(refs)
}

/// Times a broadcast run over in-memory references, fastest of [`REPLAYS`].
fn step(
    config: SimConfig,
    schemes: &[Scheme],
    caches: u32,
    refs: &[MemRef],
) -> Result<(Vec<dirsim::SimResult>, f64), String> {
    let engine = BroadcastSimulator::new(config);
    let (results, secs) =
        fastest(|| engine.run(schemes, caches, IterSource::new(refs.iter().copied())));
    Ok((results.map_err(|e| e.to_string())?, secs))
}

fn insert_step(values: &mut Values, steps: u64, busy: f64) {
    values.insert("step.busy_s", busy);
    values.insert("step.steps_per_s", steps as f64 / busy);
}

fn corpus_layers(
    inputs: &Inputs,
    schemes: &[Scheme],
    wall: f64,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let (refs, decode) = fastest(|| drain_file(&inputs.corpus()));
    let refs = refs?;
    let (mmap_refs, mmap) = fastest(|| drain_file(&inputs.corpus_dtr1()));
    if mmap_refs? != refs {
        return Err("the DTR1 and DTR3 corpora differ in length".into());
    }
    values.insert("decode.busy_s", decode);
    values.insert("decode.refs_per_s", refs as f64 / decode);
    values.insert("decode.mmap_refs_per_s", refs as f64 / mmap);
    values.insert("decode.share", decode / wall);

    let corpus = collect_all(open_trace(inputs.corpus_dtr1()).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (results, busy) = step(
        workload::sim_config(Workload::Corpus),
        schemes,
        CORPUS_CACHES,
        &corpus,
    )?;
    tally.ops(
        &inputs.expected,
        &results.iter().map(check::result_op).collect::<Vec<_>>(),
    );
    insert_step(values, refs * schemes.len() as u64, busy);
    Ok(())
}

fn wide_layers(
    inputs: &Inputs,
    schemes: &[Scheme],
    wall: f64,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let wide = Scenario::from_file(inputs.scenario("wide")).map_err(|e| e.to_string())?;
    let (generated, synth) = fastest(|| drain(wide.source(WIDE_REFS)));
    let generated = generated?;
    values.insert("synth.busy_s", synth);
    values.insert("synth.refs_per_s", generated as f64 / synth);
    values.insert("synth.share", synth / wall);

    let refs: Vec<MemRef> = wide.workload().take(WIDE_REFS as usize).collect();
    let (results, finite) = step(
        workload::sim_config(Workload::Wide),
        schemes,
        WIDE_CACHES,
        &refs,
    )?;
    tally.ops(
        &inputs.expected,
        &results.iter().map(check::result_op).collect::<Vec<_>>(),
    );
    let (_, infinite) = step(SimConfig::default(), schemes, WIDE_CACHES, &refs)?;
    insert_step(values, generated * schemes.len() as u64, finite);
    values.insert("mem.finite_extra_s", finite - infinite);
    Ok(())
}

fn grid_layers(
    inputs: &Inputs,
    wall: f64,
    run_sweep_wall: f64,
    records: &[dirsim_sweep::CellRecord],
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let parse = || -> Result<SweepSpec, String> {
        let text = std::fs::read_to_string(inputs.grid_spec()).map_err(|e| e.to_string())?;
        SweepSpec::parse(&text).map_err(|e| e.to_string())
    };
    let mut spec_s = Vec::new();
    let mut open_s = Vec::new();
    let fresh = inputs.dir.join("open.jsonl");
    for _ in 0..SETUP_SAMPLES {
        let (cells, secs) = timed(|| parse().and_then(|s| s.expand().map_err(|e| e.to_string())));
        black_box(cells?);
        spec_s.push(secs);
        let (store, secs) = timed(|| Store::open(&fresh));
        black_box(store.map_err(|e| e.to_string())?);
        open_s.push(secs);
    }
    values.insert("sweep.spec_s", median(&spec_s));
    values.insert("store.open_s", median(&open_s));

    // Synth generation, once per trace; every cell of a trace regenerates it.
    let spec = parse()?;
    let mut traces: BTreeMap<String, Vec<MemRef>> = BTreeMap::new();
    let (mut generated, mut synth_per_cell_set) = (0u64, 0.0);
    for source in &spec.scenarios {
        let SweepSource::Scenario(scenario) = source else {
            return Err(format!("grid source `{}` is not a scenario", source.name()));
        };
        let refs = spec.refs[0] as u64;
        let (n, secs) = fastest(|| drain(scenario.source(refs)));
        generated += n?;
        synth_per_cell_set += secs;
        traces.insert(
            scenario.name().to_string(),
            scenario.workload().take(refs as usize).collect(),
        );
    }
    let synth_busy = synth_per_cell_set * spec.schemes.len() as f64;
    values.insert("synth.busy_s", synth_busy);
    values.insert("synth.refs_per_s", generated as f64 / synth_per_cell_set);
    values.insert("synth.share", synth_busy / (GRID_WORKERS as f64 * wall));

    // Each cell as the sweep executor runs it, and its step stage alone.
    let registry = Arc::new(MetricsRegistry::new());
    let mut cell_s = Vec::new();
    let mut cell_ops: Vec<Op> = Vec::new();
    let mut step_ops: Vec<Op> = Vec::new();
    let (mut steps, mut step_busy) = (0u64, 0.0);
    for cell in spec.expand().map_err(|e| e.to_string())? {
        let CellInput::Synthetic(config) = &cell.input else {
            return Err(format!("grid cell `{}` is not synthetic", cell.scenario));
        };
        let sim = SimConfig {
            geometry: cell.geometry,
            ..SimConfig::default()
        };
        let (results, secs) = timed(|| {
            Experiment::new()
                .workload(NamedWorkload::new(cell.scenario.clone(), config.clone()))
                .scheme(cell.scheme)
                .refs_per_trace(cell.refs)
                .sim_config(sim)
                .execution(ExecutionMode::Pipelined { workers: 1 })
                .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
                .run()
        });
        let results = results.map_err(|e| e.to_string())?;
        cell_s.push(secs);
        let cpus = u32::from(config.cpus);
        let combined = &results.per_scheme[0].combined;
        cell_ops.push(check::record_op(&check::record_of(
            combined,
            &cell.scenario,
            cpus,
        )));

        let refs = &traces[&cell.scenario];
        let (stepped, secs) = step(sim, &[cell.scheme], config.processes, refs)?;
        step_busy += secs;
        steps += stepped[0].refs;
        step_ops.push(check::record_op(&check::record_of(
            &stepped[0],
            &cell.scenario,
            cpus,
        )));
    }
    tally.ops(&inputs.expected, &cell_ops);
    tally.ops(&inputs.expected, &step_ops);
    insert_step(values, steps, step_busy);
    values.insert("sweep.cell_s_p50", median(&cell_s));
    values.insert("sweep.cell_s_p75", quantile(&cell_s, 0.75));
    values.insert(
        "sweep.pool_efficiency",
        cell_s.iter().sum::<f64>() / (GRID_WORKERS as f64 * run_sweep_wall),
    );

    // Phases of the 48 cells, spread over the pool's workers.
    let phases = Phases::of(&registry);
    let per_worker = |s: f64| s / GRID_WORKERS as f64;
    values.insert("pipeline.decode_s", per_worker(phases.decode));
    values.insert("pipeline.step_s", per_worker(phases.step));
    values.insert("pipeline.merge_s", per_worker(phases.merge));
    // The cell replays are timed once each, so they are set against the
    // median sweep wall rather than the fastest one.
    let unattributed = run_sweep_wall - per_worker(phases.total());
    values.insert("pipeline.unattributed_s", unattributed);
    values.insert("pipeline.unattributed_share", unattributed / run_sweep_wall);
    values.insert("step.kernel_lanes", phases.kernel_lanes as f64);
    values.insert(
        "step.match_lanes",
        (spec.cell_count() as u64 - phases.kernel_lanes) as f64,
    );

    // Store appends of the records a sweep stored, into a fresh store.
    let path = inputs.dir.join("append.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut store = Store::open(&path).map_err(|e| e.to_string())?;
    let mut append_s = Vec::new();
    for record in records {
        let (done, secs) = timed(|| store.append(record));
        done.map_err(|e| e.to_string())?;
        append_s.push(secs);
    }
    drop(store);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    values.insert("store.append_s_p50", median(&append_s));
    values.insert("store.append_s_p75", quantile(&append_s, 0.75));
    Ok(())
}
