//! Engine-path equivalence: the engine must produce **bit-identical**
//! results for every scheme at every worker count and from every source
//! kind, and match the paper's literal one-pass-per-scheme method —
//! `Experiment::run_serial`, the reference oracle.
//!
//! This is the load-bearing guarantee behind `Experiment::workers`:
//! sharding is exact because per-block protocol state never interacts
//! across blocks and every counter merged across shards is a commutative
//! sum. Infinite caches shard by block address; finite caches shard by
//! cache set index (LRU state never crosses sets, and a block's set is a
//! pure function of its address), so both geometries get the full
//! guarantee. The source kind only changes where decoded chunks live
//! (one recycled owned buffer, or the mmap source's own buffer lent
//! zero-copy), never their order. Any drift here means one of the paths
//! is wrong, not "parallel noise".
//!
//! Every matrix below runs at 1, 3 and 8 workers from an owned source
//! (the experiment's generator) and from a borrowed one (the same stream
//! written to a DTR1 file and replayed through the mmap reader).
//!
//! The scheme list mirrors the `dirsim-verify` gauntlet (that crate
//! depends on this one, so the 14 schemes are enumerated inline).

use dirsim::prelude::*;
use dirsim::{Experiment, ExperimentResults, NamedWorkload};
use dirsim_mem::CacheGeometry;
use dirsim_protocol::DirSpec;
use dirsim_trace::filter::without_lock_tests;
use dirsim_trace::io::write_binary;
use dirsim_trace::{MmapTraceSource, TraceStats};

const REFS: usize = 12_000;

/// Reference count for the finite-cache rounds: capacity evictions make
/// every reference more expensive (evict + re-fetch + oracle replay), so
/// the finite gauntlet runs a slightly shorter trace.
const FINITE_REFS: usize = 8_000;

/// The worker counts every matrix runs at: in-thread, and two sharded
/// counts (one of them past the core count of any CI host).
const WORKERS: [usize; 3] = [1, 3, 8];

/// The paper's Table 5 line-up plus the remaining directory organisations
/// and snoopy baselines — every protocol the model checker gauntlets.
fn gauntlet() -> Vec<Scheme> {
    vec![
        Scheme::dir_n_nb(),
        Scheme::dir0_b(),
        Scheme::dir1_b(),
        Scheme::dir_i_b(2),
        Scheme::dir1_nb(),
        Scheme::Directory(DirSpec::dir_i_nb(2).expect("two pointers is a valid NB spec")),
        Scheme::CoarseVector,
        Scheme::Tang,
        Scheme::YenFu,
        Scheme::DirUpdate,
        Scheme::Wti,
        Scheme::Illinois,
        Scheme::Dragon,
        Scheme::Berkeley,
    ]
}

fn assert_identical(a: &ExperimentResults, b: &ExperimentResults, what: &str) {
    assert_eq!(a.trace_stats, b.trace_stats, "{what}: trace statistics");
    assert_eq!(
        a.per_scheme.len(),
        b.per_scheme.len(),
        "{what}: scheme count"
    );
    for (x, y) in a.per_scheme.iter().zip(&b.per_scheme) {
        assert_eq!(x.scheme, y.scheme, "{what}: scheme order");
        assert_eq!(x.per_trace, y.per_trace, "{what}: {} per-trace", x.scheme);
        assert_eq!(x.combined, y.combined, "{what}: {} combined", x.scheme);
    }
}

/// One (workloads × schemes) matrix, kept as parts so the same stream
/// can also be replayed from a file.
#[derive(Clone)]
struct Matrix {
    workloads: Vec<NamedWorkload>,
    schemes: Vec<Scheme>,
    refs: usize,
    sim: SimConfig,
    exclude_lock_tests: bool,
}

impl Matrix {
    fn new(workloads: Vec<NamedWorkload>, refs: usize, sim: SimConfig) -> Self {
        Matrix {
            workloads,
            schemes: gauntlet(),
            refs,
            sim,
            exclude_lock_tests: false,
        }
    }

    fn experiment(&self) -> Experiment {
        Experiment::new()
            .workloads(self.workloads.clone())
            .schemes(self.schemes.clone())
            .refs_per_trace(self.refs)
            .sim_config(self.sim)
            .exclude_lock_tests(self.exclude_lock_tests)
    }

    /// Checks the matrix at every worker count in `workers`, from the
    /// owned and the borrowed source, against `run_serial`; returns the
    /// serial oracle's results.
    fn assert_matches_serial(&self, workers: &[usize], what: &str) -> ExperimentResults {
        let serial = self.experiment().run_serial().unwrap();
        for &n in workers {
            let owned = self.experiment().workers(n).run().unwrap();
            assert_identical(&serial, &owned, &format!("{what}, owned, workers = {n}"));
        }
        self.assert_borrowed_matches(&serial, workers, what);
        serial
    }

    /// Replays each workload's stream — lock-filtered as the experiment
    /// would filter it — from a DTR1 file through the mmap reader's
    /// zero-copy feed, and checks every per-trace result and the trace
    /// statistics against `serial`.
    fn assert_borrowed_matches(&self, serial: &ExperimentResults, workers: &[usize], what: &str) {
        for (k, w) in self.workloads.iter().enumerate() {
            let raw: Vec<MemRef> = Workload::new(w.config.clone()).take(self.refs).collect();
            // The experiment's cache bound: one cache per processor, or
            // per process id (the ids that appear, for open systems).
            let caches = match self.sim.sharing {
                SharingModel::PerProcessor => u32::from(w.config.cpus),
                SharingModel::PerProcess if w.config.open.is_enabled() => {
                    TraceStats::from_refs(raw.iter().copied()).process_id_bound()
                }
                SharingModel::PerProcess => w.config.processes,
            };
            let refs: Vec<MemRef> = if self.exclude_lock_tests {
                without_lock_tests(raw).collect()
            } else {
                raw
            };
            let path = std::env::temp_dir().join(format!(
                "dirsim-equiv-borrowed-{}-{}-{k}.dtr",
                std::process::id(),
                what.replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
            ));
            {
                let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
                write_binary(&mut out, refs.iter().copied()).unwrap();
                std::io::Write::flush(&mut out).unwrap();
            }
            for &n in workers {
                let label = format!("{what}, borrowed, workers = {n}, trace {}", w.name);
                let mut stats = TraceStats::new();
                let results = BroadcastSimulator::new(self.sim)
                    .workers(n)
                    .run_observed(
                        &self.schemes,
                        caches,
                        MmapTraceSource::open(&path).unwrap(),
                        |r| stats.observe(r),
                    )
                    .unwrap();
                assert_eq!(serial.trace_stats[k], (w.name.clone(), stats), "{label}");
                for (s, result) in serial.per_scheme.iter().zip(&results) {
                    assert_eq!(s.per_trace[k].1, *result, "{label}: {}", s.scheme);
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}

fn paper_matrix() -> Matrix {
    Matrix::new(dirsim::paper::paper_workloads(), REFS, SimConfig::default())
}

fn experiment() -> Experiment {
    paper_matrix().experiment()
}

#[test]
fn gauntlet_covers_all_fourteen_schemes() {
    let schemes = gauntlet();
    assert_eq!(schemes.len(), 14);
    let names: std::collections::HashSet<String> = schemes.iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 14, "scheme names must be distinct");
}

#[test]
fn single_pass_matches_serial_for_every_scheme() {
    paper_matrix().assert_matches_serial(&[1], "single-pass");
}

#[test]
fn sharded_matches_serial_for_every_scheme() {
    paper_matrix().assert_matches_serial(&[3, 8], "sharded");
}

#[test]
fn pipelined_matches_serial_for_every_scheme() {
    // The sharded placement pipelines decode against stepping: the
    // calling thread decodes and routes chunk N+1 while the shard
    // workers step chunk N. Two workers is the shape `repro` takes on a
    // two-core host.
    paper_matrix().assert_matches_serial(&[2], "two workers");
}

#[test]
fn shard_count_is_immaterial() {
    // Per-shard counters are commutative sums, so the worker count must
    // not leak into the results at all.
    let exp = experiment();
    let three = exp.clone().workers(3).run().unwrap();
    let eight = exp.workers(8).run().unwrap();
    assert_identical(&three, &eight, "3 shards vs 8 shards");
}

#[test]
fn equivalence_holds_with_lock_tests_excluded() {
    // The §5.2 ablation filters the stream *before* it reaches the
    // engine; every execution path must see the identical filtered trace.
    let matrix = Matrix {
        exclude_lock_tests: true,
        ..paper_matrix()
    };
    matrix.assert_matches_serial(&WORKERS, "lock-filtered");
}

#[test]
fn equivalence_holds_under_the_oracle() {
    // The shadow-memory audit must neither perturb results nor behave
    // differently per path (each shard audits its own blocks).
    let audited = NamedWorkload::new(
        "audited",
        WorkloadConfig::builder().seed(7).build().unwrap(),
    );
    let sim = SimConfig::builder().check_oracle(true).build().unwrap();
    Matrix::new(vec![audited], 6_000, sim).assert_matches_serial(&WORKERS, "audited");
}

fn finite_matrix(geometry: CacheGeometry) -> Matrix {
    let config = SimConfig::builder()
        .geometry(geometry)
        .build()
        .expect("test geometry is valid");
    Matrix::new(dirsim::paper::paper_workloads(), FINITE_REFS, config)
}

fn finite_experiment(geometry: CacheGeometry) -> Experiment {
    finite_matrix(geometry).experiment()
}

#[test]
fn finite_cache_sharded_matches_serial_for_every_scheme() {
    // The tentpole guarantee: set-sharded finite-cache execution is
    // bit-identical to serial for all 14 schemes. This configuration was
    // rejected outright (`SimConfigError::ShardedFiniteCache`) before
    // set sharding existed, so this doubles as the regression test that
    // the old rejection path now succeeds.
    let serial = finite_matrix(CacheGeometry { sets: 8, ways: 2 })
        .assert_matches_serial(&[1, 2, 3, 5, 8], "finite");
    // The geometry is small enough that the equivalence is exercised by
    // real replacement traffic, not a trivially infinite-looking run.
    for s in &serial.per_scheme {
        assert!(
            s.combined.capacity_evictions > 0,
            "{}: no capacity evictions — geometry too large for the trace",
            s.scheme
        );
    }
}

#[test]
fn finite_cache_shard_count_is_immaterial() {
    let exp = finite_experiment(CacheGeometry { sets: 8, ways: 2 });
    let three = exp.clone().workers(3).run().unwrap();
    let eight = exp.workers(8).run().unwrap();
    assert_identical(&three, &eight, "finite 3 shards vs 8 shards");
}

#[test]
fn degenerate_finite_geometries_agree_across_modes() {
    // The corners of the geometry space: direct-mapped (ways = 1, every
    // touch of a new block in a set evicts), a single set (sets = 1, the
    // set key routes everything to shard 0 and the run degenerates to
    // single-pass-on-a-worker), and fewer sets than shards (most shards
    // stay empty). Each must agree with serial at every worker count.
    let cases = [
        ("direct-mapped", CacheGeometry { sets: 16, ways: 1 }),
        ("single-set", CacheGeometry { sets: 1, ways: 4 }),
        ("sets < shards", CacheGeometry { sets: 2, ways: 2 }),
    ];
    for (label, geometry) in cases {
        finite_matrix(geometry).assert_matches_serial(&WORKERS, label);
    }
}

#[test]
fn finite_cache_equivalence_holds_under_the_oracle() {
    // Eviction write-backs and post-eviction re-fetches must replay
    // identically against each shard's shadow memory.
    let config = SimConfig::builder()
        .geometry(CacheGeometry { sets: 4, ways: 2 })
        .check_oracle(true)
        .build()
        .unwrap();
    let audited = NamedWorkload::new(
        "audited",
        WorkloadConfig::builder().seed(7).build().unwrap(),
    );
    Matrix::new(vec![audited], 6_000, config).assert_matches_serial(&WORKERS, "audited finite");
}

#[test]
fn open_system_scenario_agrees_across_all_modes() {
    // Open-system workloads exercise the one generator feature that
    // changes the *population* mid-trace: Poisson arrivals mint new
    // process IDs and departures retire them, with a Zipf-skewed shared
    // pool and a phased write ramp layered on top ("open-zipf-phased").
    // The engine paths only ever see the emitted reference stream, so
    // every worker count must still be bit-identical across all 14
    // schemes.
    let scenario = Scenario::named("open-zipf-phased").unwrap();
    let matrix = Matrix::new(
        vec![NamedWorkload::from(scenario)],
        REFS,
        SimConfig::default(),
    );
    let serial = matrix.assert_matches_serial(&WORKERS, "open-system");
    // The run really is open: more processes appear than the six that
    // start, so the equivalence covers mid-trace arrivals.
    let procs = serial.trace_stats[0].1.process_count();
    assert!(
        procs > 6,
        "expected arrivals beyond the initial population, saw {procs} processes"
    );
}

#[test]
fn default_and_parallel_runs_agree_with_serial() {
    // The public entry point at its default (one worker) and at one
    // worker per core — what `repro` runs — agree with the oracle.
    let exp = Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(Scheme::paper_lineup())
        .refs_per_trace(REFS);
    let serial = exp.run_serial().unwrap();
    let default = exp.run().unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = exp.workers(cores).run().unwrap();
    assert_identical(&serial, &default, "default run");
    assert_identical(&serial, &parallel, "one worker per core");
}

// ---------------------------------------------------------------------
// Table kernels: the memoized transition-table step path must be
// bit-identical to the match-based machines it replaces. These runs set
// `check_invariants(false)` because the per-reference audit forces the
// direct path (audits read machine internals the kernel never touches),
// and debug builds audit by default.
// ---------------------------------------------------------------------

/// Runs `exp` through the serial oracle and at every worker count, in
/// that order, labelled.
fn every_path(exp: &Experiment) -> Vec<(String, ExperimentResults)> {
    let mut runs = vec![("serial".to_string(), exp.run_serial().unwrap())];
    for workers in WORKERS {
        runs.push((
            format!("workers = {workers}"),
            exp.clone().workers(workers).run().unwrap(),
        ));
    }
    runs
}

fn kernel_experiment(kernels: KernelPolicy, geometry: Option<CacheGeometry>) -> Experiment {
    let mut builder = SimConfig::builder()
        .check_invariants(false)
        .kernels(kernels);
    if let Some(g) = geometry {
        builder = builder.geometry(g);
    }
    let config = builder.build().expect("kernel test config is valid");
    Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(gauntlet())
        .refs_per_trace(FINITE_REFS)
        .sim_config(config)
}

#[test]
fn table_kernels_match_the_direct_machines() {
    // `Required` rejects a run with a typed error if any lane could not
    // get a kernel, so passing proves the kernel path actually ran on the
    // left side.
    let kernels = every_path(&kernel_experiment(KernelPolicy::Required, None));
    let direct = every_path(&kernel_experiment(KernelPolicy::Disabled, None));
    for ((what, k), (_, d)) in kernels.iter().zip(&direct) {
        assert_identical(k, d, &format!("kernel {what}"));
    }
}

#[test]
fn table_kernels_match_the_direct_machines_with_finite_caches() {
    // Finite geometries route LRU capacity evictions through the kernel's
    // two-phase prepare/commit step; the small geometry guarantees real
    // replacement traffic (asserted in the finite gauntlet above).
    let geometry = CacheGeometry { sets: 8, ways: 2 };
    let kernels = every_path(&kernel_experiment(KernelPolicy::Required, Some(geometry)));
    let direct = every_path(&kernel_experiment(KernelPolicy::Disabled, Some(geometry)));
    for ((what, k), (_, d)) in kernels.iter().zip(&direct) {
        assert_identical(k, d, &format!("finite kernel {what}"));
    }
}

#[test]
fn table_kernels_match_the_direct_machines_under_auto_policy() {
    // `Auto` is the shipped default; it must agree with `Disabled` too
    // (and with `Required`, by transitivity with the test above).
    let auto = kernel_experiment(KernelPolicy::Auto, None);
    let direct = kernel_experiment(KernelPolicy::Disabled, None);
    let a = auto.run().unwrap();
    let d = direct.run().unwrap();
    assert_identical(&a, &d, "auto-policy single-pass");
}

#[test]
fn wide_systems_agree_with_kernels_on_auto() {
    // 24 caches shrink the kernel's state budget enough that read-heavy
    // sharing can overflow it mid-run; the overflow path materializes a
    // machine from the table recipes and continues on the direct path,
    // which must stay bit-identical whether or not the budget trips.
    let wide = NamedWorkload::new(
        "wide",
        WorkloadConfig::builder()
            .cpus(24)
            .processes(24)
            .seed(11)
            .build()
            .expect("wide workload config is valid"),
    );
    let base = SimConfig::builder().sharing(SharingModel::PerProcessor);
    let auto = base
        .clone()
        .check_invariants(false)
        .kernels(KernelPolicy::Auto)
        .build()
        .unwrap();
    let direct = base
        .check_invariants(false)
        .kernels(KernelPolicy::Disabled)
        .build()
        .unwrap();
    let with_kernels = Experiment::new()
        .workload(wide.clone())
        .schemes(gauntlet())
        .refs_per_trace(10_000)
        .sim_config(auto);
    let without = Experiment::new()
        .workload(wide)
        .schemes(gauntlet())
        .refs_per_trace(10_000)
        .sim_config(direct);
    for workers in WORKERS {
        let k = with_kernels.clone().workers(workers).run().unwrap();
        let d = without.clone().workers(workers).run().unwrap();
        assert_identical(&k, &d, &format!("wide, workers = {workers}"));
    }
}

// ---------------------------------------------------------------------
// Corpus ingestion: the same trace served four ways — replayed from
// memory, buffered DTR1 decode, zero-copy mmap decode, and a DTR3
// pack/unpack round-trip — must be bit-identical at every worker count
// for all 14 schemes, and match one serial pass per scheme. The mmap
// source takes the borrowed-chunk feed, the others the owned buffer.
// ---------------------------------------------------------------------

#[test]
fn corpus_round_is_bit_identical_across_sources_and_modes() {
    use dirsim::BroadcastSimulator;
    use dirsim_trace::corpus::{write_corpus, CorpusReader};
    use dirsim_trace::io::{read_binary, write_binary};
    use dirsim_trace::{IterSource, TraceSource};
    use std::io::Write as _;

    const CORPUS_REFS: usize = 10_000;
    let refs: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(CORPUS_REFS)
        .collect();
    let caches = TraceStats::from_refs(refs.iter().copied()).process_id_bound();
    let dir = std::env::temp_dir();
    let dtr = dir.join(format!("dirsim-equiv-corpus-{}.dtr", std::process::id()));
    let dtrz = dir.join(format!("dirsim-equiv-corpus-{}.dtrz", std::process::id()));
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&dtr).unwrap());
        write_binary(&mut out, refs.iter().copied()).unwrap();
        out.flush().unwrap();
    }
    {
        // Pack the on-disk DTR1 into a DTR3 corpus, exactly as
        // `trace_tool pack` does.
        let src = read_binary(std::io::BufReader::new(std::fs::File::open(&dtr).unwrap()));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&dtrz).unwrap());
        let packed = write_corpus(&mut out, src).unwrap();
        out.flush().unwrap();
        assert_eq!(packed as usize, CORPUS_REFS);
    }

    // Unpacking the corpus reproduces the original DTR1 byte for byte.
    {
        let mut src = CorpusReader::open(&dtrz).unwrap();
        let mut unpacked = Vec::new();
        let mut chunk = Vec::new();
        let mut writer = dirsim_trace::codec::BinaryWriter::new(Vec::new()).unwrap();
        while src.read_chunk(&mut chunk, 4096).unwrap() > 0 {
            for r in &chunk {
                writer.push(r).unwrap();
            }
        }
        let (bytes, count) = writer.finish().unwrap();
        unpacked.extend_from_slice(&bytes);
        assert_eq!(count as usize, CORPUS_REFS);
        assert_eq!(
            unpacked,
            std::fs::read(&dtr).unwrap(),
            "pack/unpack must round-trip the DTR1 bytes exactly"
        );
    }

    let schemes = gauntlet();
    let engine = |workers: usize| BroadcastSimulator::new(SimConfig::default()).workers(workers);
    // The serial baseline: one pass per scheme over the in-memory trace.
    let baseline: Vec<SimResult> = schemes
        .iter()
        .flat_map(|&scheme| {
            engine(1)
                .run(&[scheme], caches, IterSource::new(refs.iter().copied()))
                .unwrap()
        })
        .collect();

    for workers in WORKERS {
        let run = |source: Box<dyn TraceSource>| engine(workers).run(&schemes, caches, source);
        let what = format!("workers={workers}");
        let memory = run(Box::new(IterSource::new(refs.iter().copied()))).unwrap();
        assert_eq!(memory, baseline, "in-memory trace ({what})");
        let buffered = run(Box::new(read_binary(std::io::BufReader::new(
            std::fs::File::open(&dtr).unwrap(),
        ))))
        .unwrap();
        assert_eq!(buffered, baseline, "buffered DTR1 ({what})");
        let mapped = run(Box::new(MmapTraceSource::open(&dtr).unwrap())).unwrap();
        assert_eq!(mapped, baseline, "mmap DTR1 ({what})");
        let corpus = run(Box::new(CorpusReader::open(&dtrz).unwrap())).unwrap();
        assert_eq!(corpus, baseline, "DTR3 corpus ({what})");
    }
    std::fs::remove_file(&dtr).unwrap();
    std::fs::remove_file(&dtrz).unwrap();
}

#[test]
fn wide_finite_systems_agree_with_kernels_on_auto() {
    // The overflow fallback under a *finite* geometry: 64 caches shrink
    // the kernel's state budget to ~1365 states, and read-only traffic
    // over a wide shared pool makes every scheme's lane observe a fresh
    // holder subset per block (eviction pruning included), so DirnNB
    // trips the budget a few thousand references in. Kernel lanes carry
    // no finite-cache state of their own (the bank's shared replica
    // does), so the fallback must also reconstruct the lane's LRU
    // replica from the chunk-start snapshot — this pins that
    // reconstruction bit-identical in both the staged multi-lane decode
    // (any worker count) and the fused single-lane decode (serial).
    let wide = NamedWorkload::new(
        "wide-finite",
        WorkloadConfig::builder()
            .cpus(64)
            .processes(64)
            // Read-only traffic over a wide shared pool: every block
            // accumulates holders in its own insertion order, which is
            // exactly what mints fresh DirnNB states fastest.
            .instr_frac(0.0)
            .write_frac(0.0)
            .shared_frac(0.95)
            .shared_blocks_per_pool(256)
            .seed(13)
            .build()
            .expect("wide finite workload config is valid"),
    );
    let base = SimConfig::builder()
        .sharing(SharingModel::PerProcessor)
        .geometry(CacheGeometry { sets: 8, ways: 2 })
        .check_invariants(false);
    let auto = base.clone().kernels(KernelPolicy::Auto).build().unwrap();
    let direct = base.kernels(KernelPolicy::Disabled).build().unwrap();
    let schemes = vec![Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti];
    let with_kernels = Experiment::new()
        .workload(wide.clone())
        .schemes(schemes.clone())
        .refs_per_trace(20_000)
        .sim_config(auto);
    let without = Experiment::new()
        .workload(wide)
        .schemes(schemes)
        .refs_per_trace(20_000)
        .sim_config(direct);
    for ((what, k), (_, d)) in every_path(&with_kernels).iter().zip(&every_path(&without)) {
        assert_identical(k, d, &format!("wide finite {what}"));
    }
}
