//! Banked execution is invisible in the store.
//!
//! `run_sweep` groups cells that share a reference stream into one
//! single-pass bank. These tests pin that every record a bank stores is
//! byte-identical to the record of a one-scheme run of the same cell —
//! for all 16 paper-grid schemes, infinite and finite caches, over a
//! bundled scenario, a DTR1 trace file and a `cpus` override — and that
//! resuming a partly stored bank runs exactly its missing schemes.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use dirsim::{BroadcastSimulator, Experiment, NamedWorkload, SimConfig};
use dirsim_obs::{MetricValue, MetricsRegistry, Recorder};
use dirsim_sweep::{run_sweep, Cell, CellInput, CellRecord, Store, SweepOptions, SweepSpec};
use dirsim_trace::source::collect_all;
use dirsim_trace::{open_trace, IterSource, Scenario, TakeSource, TraceStats};

/// The `schemes` axis of the committed paper grid.
fn paper_lineup() -> String {
    let spec = SweepSpec::parse(include_str!("../specs/paper-grid.sweep")).unwrap();
    assert_eq!(spec.schemes.len(), 16);
    let names: Vec<String> = spec.schemes.iter().map(|s| s.name()).collect();
    names.join(", ")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dirsim-sweep-banks-{}-{tag}", std::process::id()))
}

fn fresh_store(tag: &str) -> (PathBuf, Store) {
    let path = temp_path(&format!("{tag}.jsonl"));
    let _ = fs::remove_file(&path);
    let store = Store::open(&path).unwrap();
    (path, store)
}

/// The record a one-scheme run of `cell` stores, computed without banks:
/// a serial one-scheme `Experiment` for synthetic cells, and the trace's
/// prefix collected into memory and run alone for trace cells.
fn one_scheme_record(cell: &Cell) -> CellRecord {
    let sim = SimConfig {
        geometry: cell.geometry,
        ..SimConfig::default()
    };
    match &cell.input {
        CellInput::Synthetic(config) => {
            let results = Experiment::new()
                .workload(NamedWorkload::new(cell.scenario.clone(), config.clone()))
                .scheme(cell.scheme)
                .refs_per_trace(cell.refs)
                .sim_config(sim)
                .run_serial()
                .unwrap();
            CellRecord::new(
                cell,
                &results.per_scheme[0].combined,
                u32::from(config.cpus),
            )
        }
        CellInput::Trace { path, .. } => {
            let source = TakeSource::new(open_trace(path).unwrap(), cell.refs as u64);
            let refs = collect_all(source).unwrap();
            let caches = cell.cpus.map_or_else(
                || TraceStats::from_refs(refs.iter().copied()).process_id_bound(),
                u32::from,
            );
            let results = BroadcastSimulator::new(sim)
                .run(&[cell.scheme], caches, IterSource::new(refs.into_iter()))
                .unwrap();
            CellRecord::new(cell, &results[0], caches)
        }
    }
}

#[test]
fn banked_records_are_byte_identical_to_one_scheme_runs() {
    let trace = temp_path("pops.dtr");
    {
        let mut out = std::io::BufWriter::new(fs::File::create(&trace).unwrap());
        let workload = Scenario::named("pops").unwrap().workload();
        dirsim_trace::io::write_binary(&mut out, workload.take(4_000)).unwrap();
        out.flush().unwrap();
    }
    // 16 schemes x {pops, DTR1 trace} x {infinite, 16x4} x {default, 8}.
    let spec = SweepSpec::parse(&format!(
        "schemes = {}\nscenarios = pops, {}\ngeometries = infinite, 16x4\n\
         cpus = default, 8\nrefs = 3_000\n",
        paper_lineup(),
        trace.display()
    ))
    .unwrap();
    let cells = spec.expand().unwrap();
    assert_eq!(cells.len(), 128);

    let (path, mut store) = fresh_store("identical");
    let opts = SweepOptions {
        workers: 2,
        ..SweepOptions::default()
    };
    let summary = run_sweep(&spec, &mut store, &opts).unwrap();
    assert_eq!((summary.ran, summary.skipped), (128, 0));

    for cell in &cells {
        let stored = store
            .records()
            .iter()
            .find(|r| r.hash == cell.hash)
            .expect("every cell stored");
        assert_eq!(
            stored.to_json().to_string_compact(),
            one_scheme_record(cell).to_json().to_string_compact(),
            "{} over {} at {} cpus={:?}",
            cell.scheme.name(),
            cell.scenario,
            cell.geometry_label(),
            cell.cpus,
        );
    }
    // The trace cells really ran finite caches that evict.
    assert!(store
        .records()
        .iter()
        .any(|r| r.scenario == trace.display().to_string() && r.evictions > 0));

    fs::remove_file(&path).unwrap();
    fs::remove_file(&trace).unwrap();
}

#[test]
fn a_partly_stored_bank_runs_only_its_missing_schemes() {
    let lineup = paper_lineup();
    let first_five: Vec<&str> = lineup.split(", ").take(5).collect();
    let grid = |schemes: &str| {
        SweepSpec::parse(&format!(
            "schemes = {schemes}\nscenarios = thor\nrefs = 2_000\n"
        ))
        .unwrap()
    };

    let (path, mut store) = fresh_store("partial");
    let five = run_sweep(
        &grid(&first_five.join(", ")),
        &mut store,
        &SweepOptions::default(),
    )
    .unwrap();
    assert_eq!(five.ran, 5);
    let five_bytes = fs::read(&path).unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let opts = SweepOptions {
        workers: 1,
        progress: false,
        recorder: Arc::clone(&registry) as Arc<dyn Recorder>,
    };
    let full = grid(&lineup);
    let rest = run_sweep(&full, &mut store, &opts).unwrap();
    assert_eq!((rest.total, rest.ran, rest.skipped), (16, 11, 5));

    let cells_run: u64 = registry
        .snapshot()
        .iter()
        .filter(|m| m.name == "sweep_cells_run")
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => panic!("sweep_cells_run is a counter"),
        })
        .sum();
    assert_eq!(cells_run, 11);
    assert_eq!(registry.counter_value("sweep_banks", &[]), Some(1));
    let sizes = registry
        .histogram_summary("sweep_bank_schemes", &[])
        .unwrap();
    assert_eq!((sizes.count, sizes.sum), (1, 11.0));

    // The five stored records are untouched, and the grid is complete
    // with one-scheme numbers.
    assert_eq!(
        &fs::read(&path).unwrap()[..five_bytes.len()],
        &five_bytes[..]
    );
    assert_eq!(store.len(), 16);
    for cell in full.expand().unwrap() {
        let stored = store
            .records()
            .iter()
            .find(|r| r.hash == cell.hash)
            .unwrap();
        assert_eq!(*stored, one_scheme_record(&cell), "{}", cell.scheme.name());
    }
    fs::remove_file(&path).unwrap();
}
