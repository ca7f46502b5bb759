//! The sweep executor: a worker pool of single-pass banks over the
//! pending cells.
//!
//! The paper runs every scheme over the same interleaved reference
//! stream, and so does the engine: one decoded chunk steps every scheme's
//! lane. The executor therefore schedules **banks**, not cells. After the
//! skip-if-stored filter, pending cells are grouped by everything in
//! their identity except the scheme — input, geometry, CPU override and
//! reference budget — and each bank runs once, in-thread on its worker
//! (one engine worker): one trace generation (or one file stream) feeds
//! all of the bank's schemes. Every number stays
//! bit-identical to a one-scheme run of the same cell (the equivalence
//! the engine's tier-1 tests pin), so each cell still gets its own
//! [`CellRecord`], built exactly as a one-scheme run would build it.
//!
//! Banks are independent, so a shared work queue plus a result channel is
//! all the coordination needed. The largest bank's scheme list is split
//! in halves until every worker has a bank and the bank count is a
//! multiple of the worker count, and the queue runs largest first; a bank
//! of one scheme is just a cell. The `sweep_banks`
//! counter and the `sweep_bank_schemes` histogram record the grouping.
//!
//! The main thread owns the store: workers never touch the file, and a
//! finished bank's records are appended (each flushed) in cell order. A
//! crash loses at most the banks still in flight — one per worker — and
//! a re-run resumes only those banks' missing schemes. Progress goes
//! through [`dirsim_obs::ProgressMeter`] — cells done/total, aggregate
//! refs/sec, and a reference-weighted ETA.

use std::cmp::Reverse;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dirsim::{BroadcastSimulator, Experiment, NamedWorkload, SimConfig, SimResult};
use dirsim_obs::{NoopRecorder, ProgressMeter, Recorder};
use dirsim_protocol::Scheme;
use dirsim_trace::{open_trace, TakeSource, TraceStats};

use crate::cell::{Cell, CellInput, CellRecord};
use crate::store::Store;
use crate::{SweepError, SweepSpec};

/// Tuning knobs for [`run_sweep`].
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Emit live progress to stderr.
    pub progress: bool,
    /// Metrics sink for sweep-level counters (cells run/skipped, refs,
    /// banks) and the `sweep_bank_schemes` histogram.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            progress: false,
            recorder: Arc::new(NoopRecorder),
        }
    }
}

/// What one [`run_sweep`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Cells in the expanded grid.
    pub total: usize,
    /// Cells simulated by this invocation.
    pub ran: usize,
    /// Cells already in the store, left untouched.
    pub skipped: usize,
    /// References simulated by this invocation.
    pub refs_simulated: u64,
    /// Wall-clock seconds spent running cells.
    pub wall_secs: f64,
}

/// Expands `spec`, skips every cell already in `store`, groups the rest
/// into single-pass banks, runs the banks over a worker pool, and streams
/// each completed bank's cells to the store.
///
/// # Errors
///
/// Returns the first [`SweepError`] hit: spec expansion, a bank's
/// simulation, or a store append. Cells stored before the failure are
/// already durable, so a re-run resumes past them.
pub fn run_sweep(
    spec: &SweepSpec,
    store: &mut Store,
    opts: &SweepOptions,
) -> Result<SweepSummary, SweepError> {
    let cells = spec.expand()?;
    let total = cells.len();
    let pending: Vec<Cell> = cells
        .into_iter()
        .filter(|c| !store.contains(&c.hash))
        .collect();
    let skipped = total - pending.len();
    let refs_pending: u64 = pending.iter().map(|c| c.refs as u64).sum();
    opts.recorder
        .counter("sweep_cells_total", &[], total as u64);
    opts.recorder
        .counter("sweep_cells_skipped", &[], skipped as u64);

    let workers = effective_workers(opts.workers, pending.len());
    let banks = plan_banks(pending, workers);
    opts.recorder
        .counter("sweep_banks", &[], banks.len() as u64);
    for bank in &banks {
        opts.recorder
            .observe("sweep_bank_schemes", &[], bank.len() as f64);
    }
    let mut meter = progress_meter(opts.progress, total, skipped);
    let start = Instant::now();

    let mut ran = 0usize;
    let mut refs_simulated = 0u64;
    let mut first_err: Option<SweepError> = None;

    if !banks.is_empty() {
        let queue = Mutex::new(banks.into_iter());
        let queue = &queue;
        let (tx, rx) = mpsc::channel::<(Vec<Cell>, Result<Vec<CellRecord>, SweepError>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let bank = queue.lock().expect("queue poisoned").next();
                    let Some(bank) = bank else { break };
                    let result = run_bank(&bank);
                    if tx.send((bank, result)).is_err() {
                        break; // main thread stopped listening
                    }
                });
            }
            drop(tx);
            // Returning drops the receiver, which makes every worker's
            // next send fail and drains the pool.
            for (bank, result) in rx {
                let records = match result {
                    Ok(records) => records,
                    Err(e) => {
                        first_err = Some(e);
                        return;
                    }
                };
                for (cell, record) in bank.iter().zip(&records) {
                    if let Err(e) = store.append(record) {
                        first_err = Some(e.into());
                        return;
                    }
                    ran += 1;
                    refs_simulated += record.refs;
                    let scheme = cell.scheme.name();
                    opts.recorder
                        .counter("sweep_cells_run", &[("scheme", scheme.as_str())], 1);
                    opts.recorder.counter("sweep_refs", &[], record.refs);
                    let eta = eta_secs(start.elapsed(), refs_simulated, refs_pending);
                    meter.tick_now(ran as u64, eta);
                }
            }
        });
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let wall_secs = start.elapsed().as_secs_f64();
    meter.finish(ran as u64, None);
    Ok(SweepSummary {
        total,
        ran,
        skipped,
        refs_simulated,
        wall_secs,
    })
}

/// Groups pending cells into banks — cells equal in every identity axis
/// but the scheme, kept in expansion order — then splits the largest
/// bank's scheme list in halves until every worker has a bank and the
/// bank count is a multiple of the worker count, or every bank is a
/// single cell. Banks are queued largest first.
///
/// The multiple matters: three equal banks on two workers leave one
/// worker idle for the last third of the run, while four (two halves)
/// keep both busy to the end for one extra stream generation.
fn plan_banks(pending: Vec<Cell>, workers: usize) -> Vec<Vec<Cell>> {
    let mut banks: Vec<Vec<Cell>> = Vec::new();
    for cell in pending {
        match banks.iter_mut().find(|bank| same_bank(&bank[0], &cell)) {
            Some(bank) => bank.push(cell),
            None => banks.push(vec![cell]),
        }
    }
    while banks.len() < workers || banks.len() % workers != 0 {
        let Some(largest) = banks.iter_mut().max_by_key(|bank| bank.len()) else {
            break;
        };
        if largest.len() < 2 {
            break;
        }
        let tail = largest.split_off(largest.len() / 2);
        banks.push(tail);
    }
    banks.sort_by_key(|bank| Reverse(bank.len()));
    banks
}

/// Whether two cells simulate the same reference stream on the same
/// machine: equal input, geometry, CPU override and reference budget.
fn same_bank(a: &Cell, b: &Cell) -> bool {
    let same_input = match (&a.input, &b.input) {
        (CellInput::Synthetic(x), CellInput::Synthetic(y)) => a.scenario == b.scenario && x == y,
        (CellInput::Trace { path: p, len: m }, CellInput::Trace { path: q, len: n }) => {
            p == q && m == n
        }
        _ => false,
    };
    same_input && a.geometry == b.geometry && a.cpus == b.cpus && a.refs == b.refs
}

/// Runs one bank in a single pass and returns each cell's store record,
/// in bank order.
///
/// Synthetic banks go through the normal [`Experiment`] front door;
/// trace banks stream their file through `open_trace` into a
/// [`BroadcastSimulator`]. Both run inline on the calling worker, so the
/// bank's stream is generated or decoded once for all its schemes, and
/// every result is bit-identical to a one-scheme run of its cell.
fn run_bank(bank: &[Cell]) -> Result<Vec<CellRecord>, SweepError> {
    let head = &bank[0];
    let schemes: Vec<Scheme> = bank.iter().map(|c| c.scheme).collect();
    let sim = SimConfig {
        geometry: head.geometry,
        ..SimConfig::default()
    };
    let (results, cpus): (Vec<SimResult>, u32) = match &head.input {
        CellInput::Synthetic(config) => {
            let results = Experiment::new()
                .workload(NamedWorkload::new(head.scenario.clone(), config.clone()))
                .schemes(schemes)
                .refs_per_trace(head.refs)
                .sim_config(sim)
                .run()?;
            let results = results.per_scheme.into_iter().map(|s| s.combined).collect();
            (results, u32::from(config.cpus))
        }
        CellInput::Trace { path, .. } => {
            let caches = trace_caches(head, path)?;
            let source = TakeSource::new(
                open_trace(path).map_err(dirsim::Error::from)?,
                head.refs as u64,
            );
            let results = BroadcastSimulator::new(sim).run(&schemes, caches, source)?;
            (results, caches)
        }
    };
    Ok(bank
        .iter()
        .zip(&results)
        .map(|(cell, result)| CellRecord::new(cell, result, cpus))
        .collect())
}

/// Cache count for a trace bank: the spec's `cpus` override taken as an
/// explicit cache count, or one cache per process id observed in the
/// simulated prefix — the same default `simulate` applies to trace
/// files (ids, not distinct processes: an open-system trace can retire
/// an id without it ever emitting a reference).
fn trace_caches(cell: &Cell, path: &str) -> Result<u32, SweepError> {
    if let Some(cpus) = cell.cpus {
        return Ok(u32::from(cpus));
    }
    let stats = open_trace(path)
        .and_then(|source| TraceStats::from_source(TakeSource::new(source, cell.refs as u64)))
        .map_err(dirsim::Error::from)?;
    if stats.total() == 0 {
        return Err(SweepError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("trace `{path}` is empty"),
        )));
    }
    Ok(stats.process_id_bound())
}

fn effective_workers(requested: usize, pending: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if requested == 0 { available } else { requested };
    workers.clamp(1, pending.max(1))
}

/// ETA from the aggregate reference rate so far: remaining refs over
/// refs/sec. Reference-weighted, so a grid mixing cheap and expensive
/// cells converges faster than a per-cell mean would.
fn eta_secs(elapsed: Duration, refs_done: u64, refs_pending: u64) -> Option<u64> {
    let secs = elapsed.as_secs_f64();
    if refs_done == 0 || secs <= 0.0 {
        return None;
    }
    let rate = refs_done as f64 / secs;
    let remaining = refs_pending.saturating_sub(refs_done) as f64;
    Some((remaining / rate).ceil() as u64)
}

fn progress_meter(enabled: bool, total: usize, skipped: usize) -> ProgressMeter {
    if !enabled {
        return ProgressMeter::disabled();
    }
    ProgressMeter::new(
        "cells",
        Duration::from_millis(500),
        Box::new(move |p| {
            let eta = p
                .detail
                .map_or(String::new(), |secs| format!(", eta {secs}s"));
            eprintln!(
                "sweep: {}/{} cells ({} cached), {:.2} cells/s{eta}",
                p.done + skipped as u64,
                total,
                skipped,
                p.rate_per_sec,
            );
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dirsim-sweep-run-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse("schemes = Dir1NB, WTI\nscenarios = pops\nrefs = 2_000\n").unwrap()
    }

    /// The record a one-scheme `Experiment` run of `cell` produces.
    fn one_scheme_record(cell: &Cell) -> CellRecord {
        let CellInput::Synthetic(config) = &cell.input else {
            panic!("synthetic cells only");
        };
        let results = Experiment::new()
            .workload(NamedWorkload::new(cell.scenario.clone(), config.clone()))
            .scheme(cell.scheme)
            .refs_per_trace(cell.refs)
            .sim_config(SimConfig {
                geometry: cell.geometry,
                ..SimConfig::default()
            })
            .run()
            .unwrap();
        CellRecord::new(
            cell,
            &results.per_scheme[0].combined,
            u32::from(config.cpus),
        )
    }

    #[test]
    fn runs_then_skips_and_matches_single_cell_results() {
        let path = temp_store("skip");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let spec = tiny_spec();

        let first = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((first.total, first.ran, first.skipped), (2, 2, 0));
        assert_eq!(first.refs_simulated, 4_000);
        let bytes = fs::read(&path).unwrap();

        let again = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((again.total, again.ran, again.skipped), (2, 0, 2));
        assert_eq!(again.refs_simulated, 0);
        assert_eq!(fs::read(&path).unwrap(), bytes, "skip must not rewrite");

        // The stored numbers are the engine's own, not a re-derivation.
        // The pool appends in completion order, so look each cell up by
        // its hash.
        for cell in spec.expand().unwrap() {
            let stored = store
                .records()
                .iter()
                .find(|r| r.hash == cell.hash)
                .expect("every cell stored");
            assert_eq!(*stored, one_scheme_record(&cell), "{}", cell.scheme.name());
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn banks_group_cells_by_everything_but_the_scheme() {
        let spec = SweepSpec::parse(
            "schemes = Dir1NB, WTI, Dragon\nscenarios = pops, thor\n\
             geometries = infinite, 16x4\nrefs = 1_000\n",
        )
        .unwrap();
        let cells = spec.expand().unwrap();
        let banks = plan_banks(cells.clone(), 1);
        assert_eq!(banks.len(), 4);
        for bank in &banks {
            let schemes: Vec<String> = bank.iter().map(|c| c.scheme.name()).collect();
            assert_eq!(schemes, ["Dir1NB", "WTI", "Dragon"]);
            assert!(bank.iter().all(|c| same_bank(&bank[0], c)));
        }
        assert!(!same_bank(&banks[0][0], &banks[1][0]));
        // Grouping keeps expansion order: the banks concatenate back to it.
        let order: Vec<&str> = banks.iter().flatten().map(|c| c.hash.as_str()).collect();
        let expanded: Vec<&str> = cells.iter().map(|c| c.hash.as_str()).collect();
        assert_eq!(order, expanded);
    }

    #[test]
    fn largest_banks_split_in_halves_until_the_workers_share_them_evenly() {
        let lineup = "Dir0B, Dir1B, Dir2B, Dir4B, Dir1NB, Dir2NB, Dir4NB, DirnNB, \
                      CoarseVector, Tang, YenFu, DirUpd, WTI, Illinois, Dragon, Berkeley";
        let sizes = |scenarios: &str, workers: usize| -> Vec<usize> {
            let text = format!("schemes = {lineup}\nscenarios = {scenarios}\n");
            let cells = SweepSpec::parse(&text).unwrap().expand().unwrap();
            let banks = plan_banks(cells.clone(), workers);
            // Every cell lands in exactly one bank, and each bank is a run
            // of consecutive cells in expansion order.
            assert_eq!(banks.iter().map(Vec::len).sum::<usize>(), cells.len());
            for bank in &banks {
                let at = cells.iter().position(|c| c.hash == bank[0].hash).unwrap();
                let run: Vec<&str> = cells[at..at + bank.len()]
                    .iter()
                    .map(|c| c.hash.as_str())
                    .collect();
                let hashes: Vec<&str> = bank.iter().map(|c| c.hash.as_str()).collect();
                assert_eq!(hashes, run);
            }
            banks.iter().map(Vec::len).collect()
        };
        let grid = "pops, thor, pero";
        assert_eq!(sizes(grid, 1), [16, 16, 16]);
        assert_eq!(sizes(grid, 2), [16, 16, 8, 8]);
        assert_eq!(sizes(grid, 3), [16, 16, 16]);
        assert_eq!(sizes(grid, 4), [16, 16, 8, 8]);
        assert_eq!(sizes(grid, 5), [16, 8, 8, 8, 8]);
        assert_eq!(sizes("pops", 1), [16]);
        assert_eq!(sizes("pops", 2), [8, 8]);
        assert_eq!(sizes("pops", 3), [8, 4, 4]);
        // Never below one scheme per bank.
        let cells = tiny_spec().expand().unwrap();
        assert_eq!(plan_banks(cells, 8).len(), 2);
        assert!(plan_banks(Vec::new(), 2).is_empty());
    }

    #[test]
    fn bank_metrics_show_the_grouping_and_never_change_records() {
        let spec = SweepSpec::parse(
            "schemes = Dir1NB, WTI, Dragon\nscenarios = pops, thor\nrefs = 1_500\n",
        )
        .unwrap();
        let run = |tag: &str, workers: usize, recorder: Arc<dyn Recorder>| {
            let path = temp_store(tag);
            let _ = fs::remove_file(&path);
            let mut store = Store::open(&path).unwrap();
            let opts = SweepOptions {
                workers,
                progress: false,
                recorder,
            };
            let summary = run_sweep(&spec, &mut store, &opts).unwrap();
            assert_eq!(summary.ran, 6);
            let bytes = fs::read(&path).unwrap();
            fs::remove_file(&path).unwrap();
            bytes
        };

        // One worker: one bank per scenario, three schemes each.
        let registry = Arc::new(dirsim_obs::MetricsRegistry::new());
        let observed = run("metrics", 1, Arc::clone(&registry) as Arc<dyn Recorder>);
        assert_eq!(registry.counter_value("sweep_banks", &[]), Some(2));
        let sizes = registry
            .histogram_summary("sweep_bank_schemes", &[])
            .unwrap();
        assert_eq!(
            (sizes.count, sizes.sum, sizes.min, sizes.max),
            (2, 6.0, 3.0, 3.0)
        );
        for scheme in ["Dir1NB", "WTI", "Dragon"] {
            let ran = registry.counter_value("sweep_cells_run", &[("scheme", scheme)]);
            assert_eq!(ran, Some(2), "{scheme}");
        }
        // A single worker appends deterministically, so the recorder's
        // effect on the store is checked byte for byte.
        assert_eq!(observed, run("plain", 1, Arc::new(NoopRecorder)));

        // Four workers: two 3-scheme banks split into 1 + 2 each.
        let registry = Arc::new(dirsim_obs::MetricsRegistry::new());
        run("split", 4, Arc::clone(&registry) as Arc<dyn Recorder>);
        assert_eq!(registry.counter_value("sweep_banks", &[]), Some(4));
        let sizes = registry
            .histogram_summary("sweep_bank_schemes", &[])
            .unwrap();
        assert_eq!(
            (sizes.count, sizes.sum, sizes.min, sizes.max),
            (4, 6.0, 1.0, 2.0)
        );
    }

    #[test]
    fn trace_cells_run_skip_and_rerun_when_the_file_changes() {
        use std::io::Write as _;
        let trace =
            std::env::temp_dir().join(format!("dirsim-sweep-run-trace-{}.dtr", std::process::id()));
        let write_trace = |refs: usize| {
            let mut out = std::io::BufWriter::new(fs::File::create(&trace).unwrap());
            let workload = dirsim_trace::Scenario::named("pops").unwrap().workload();
            dirsim_trace::io::write_binary(&mut out, workload.take(refs)).unwrap();
            out.flush().unwrap();
        };
        write_trace(1_500);

        let path = temp_store("trace");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let text = format!(
            "schemes = Dir1NB, WTI\nscenarios = {}\nrefs = 1_000\n",
            trace.display()
        );
        let spec = SweepSpec::parse(&text).unwrap();

        let first = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((first.total, first.ran, first.skipped), (2, 2, 0));
        // `refs` caps the stream: 1_000 of the file's 1_500 references.
        assert_eq!(first.refs_simulated, 2_000);
        let record = &store.records()[0];
        assert_eq!(record.scenario, trace.display().to_string());
        assert!(record.cpus > 0, "caches derived from the trace itself");
        assert!(record.transactions > 0);

        let again = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((again.ran, again.skipped), (0, 2));

        // Rewriting the file changes its length, hence every cell's
        // identity — the grid re-runs instead of serving stale results.
        write_trace(2_000);
        let spec = SweepSpec::parse(&text).unwrap();
        let rerun = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((rerun.ran, rerun.skipped), (2, 0));

        fs::remove_file(&path).unwrap();
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn worker_count_clamps_to_pending_cells() {
        assert_eq!(effective_workers(8, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(3, 0), 1);
    }

    #[test]
    fn eta_is_reference_weighted() {
        let eta = eta_secs(Duration::from_secs(10), 1_000, 3_000).unwrap();
        assert_eq!(eta, 20);
        assert!(eta_secs(Duration::from_secs(1), 0, 100).is_none());
    }
}
