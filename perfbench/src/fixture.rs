//! Seeded, benchmark-owned inputs and the oracle digests, built once per
//! seed and outside every metric.
//!
//! A seed's inputs live in `WORK/seed-N/`: the seeded `.scn` copies, the
//! grid spec naming them, the corpus (DTR3, plus the same references as
//! DTR1 for the traced run's decode comparison), and per workload the
//! match-machine oracle's digests plus a marker written last. Building a
//! new seed removes the other seeds' directories, so disk use stays at
//! one seed's inputs.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use dirsim::{BroadcastSimulator, KernelPolicy, SimConfig, SimResult};
use dirsim_obs::Json;
use dirsim_sweep::cell::fnv1a64;
use dirsim_sweep::{SweepSource, SweepSpec};
use dirsim_trace::corpus::write_corpus;
use dirsim_trace::Scenario;

use crate::check::{self, Expected, Op};
use crate::workload::{
    self, Workload, CORPUS_CACHES, CORPUS_REFS, WIDE_CACHES, WIDE_GEOMETRY, WIDE_REFS,
};

/// The seed later claims are tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// The seed held out from tuning, for checking a claim.
pub const HELD_OUT_SEED: u64 = 1988;

/// The grid workload's spec; its `scenarios` line is rewritten per seed.
pub const GRID_SPEC: &str = include_str!("../scenarios/grid.sweep");

/// Scenario templates; each `seed` line is rewritten per seed.
const SCENARIOS: [(&str, &str); 4] = [
    ("pops", include_str!("../scenarios/pops.scn")),
    ("thor", include_str!("../scenarios/thor.scn")),
    ("pero", include_str!("../scenarios/pero.scn")),
    ("wide", include_str!("../scenarios/wide.scn")),
];

/// The grid's three traces, in spec order.
pub const GRID_SCENARIOS: [&str; 3] = ["pops", "thor", "pero"];

/// One seed's built inputs for one workload.
#[derive(Debug)]
pub struct Inputs {
    /// The seed's directory.
    pub dir: PathBuf,
    /// What every repetition's ops are checked against.
    pub expected: Expected,
}

impl Inputs {
    /// Loads inputs that [`build`] already made.
    pub fn existing(workload: Workload, seed: u64, work: &Path) -> Result<Inputs, String> {
        let dir = seed_dir(work, seed);
        if !dir.join(marker(workload)).is_file() {
            return Err(format!(
                "no {} fixture for seed {seed} in {}; run `perfbench fixture` first",
                workload.name(),
                work.display()
            ));
        }
        let text =
            fs::read_to_string(dir.join(oracle_file(workload))).map_err(|e| e.to_string())?;
        let json = Json::parse(&text).map_err(|e| format!("oracle file: {e}"))?;
        Ok(Inputs {
            expected: Expected {
                oracle: Expected::parse_oracle(&json)?,
                committed: check::committed(workload.name(), seed)?,
            },
            dir,
        })
    }

    /// The DTR3 corpus.
    pub fn corpus(&self) -> PathBuf {
        self.dir.join("corpus.dtrz")
    }

    /// The corpus's references as a DTR1 file.
    pub fn corpus_dtr1(&self) -> PathBuf {
        self.dir.join("corpus.dtr")
    }

    /// A seeded scenario file.
    pub fn scenario(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.scn"))
    }

    /// The seeded grid spec.
    pub fn grid_spec(&self) -> PathBuf {
        self.dir.join("grid.sweep")
    }
}

/// A seed's directory. Its name also carries a digest of the templates
/// and sizes, so inputs built by an older benchmark are never reused.
fn seed_dir(work: &Path, seed: u64) -> PathBuf {
    let mut text = format!(
        "{GRID_SPEC}{CORPUS_REFS}/{CORPUS_CACHES}/{WIDE_REFS}/{WIDE_CACHES}/{:?}",
        WIDE_GEOMETRY
    );
    for (_, template) in SCENARIOS {
        text.push_str(template);
    }
    work.join(format!("seed-{seed}-{:016x}", fnv1a64(text.as_bytes())))
}

fn marker(workload: Workload) -> String {
    format!("{}.done", workload.name())
}

fn oracle_file(workload: Workload) -> String {
    format!("oracle-{}.json", workload.name())
}

/// SplitMix64: spreads consecutive benchmark seeds over the seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A template's text with its `seed` line replaced by one derived from
/// the benchmark seed.
fn seeded_scenario(template: &str, seed: u64) -> Result<String, String> {
    let base = Scenario::parse(template).map_err(|e| e.to_string())?;
    let value = base.config().seed ^ mix(seed);
    let text: String = template
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("seed =") {
                format!("    seed = {value:#x}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let seeded = Scenario::parse(&text).map_err(|e| e.to_string())?;
    if seeded.config().seed != value {
        return Err(format!("template `{}` has no seed line", base.name()));
    }
    Ok(text)
}

/// Builds `workload`'s inputs and oracle digests for `seed`, unless they
/// are already built.
pub fn build(workload: Workload, seed: u64, work: &Path) -> Result<(), String> {
    let dir = seed_dir(work, seed);
    if dir.join(marker(workload)).is_file() {
        return Ok(());
    }
    evict_other_seeds(work, &dir)?;
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, template) in SCENARIOS {
        write(
            &dir.join(format!("{name}.scn")),
            seeded_scenario(template, seed)?.as_bytes(),
        )?;
    }
    write(&dir.join("grid.sweep"), grid_spec(&dir).as_bytes())?;

    let schemes = workload::lineup();
    let oracle = |config: SimConfig| {
        BroadcastSimulator::new(SimConfig {
            kernels: KernelPolicy::Disabled,
            ..config
        })
    };
    let ops: Vec<Op> = match workload {
        Workload::Corpus => {
            let pops = load(&dir, "pops")?;
            write_with(&dir.join("corpus.dtrz"), |w| {
                write_corpus(w, pops.source(CORPUS_REFS)).map(drop)
            })?;
            write_with(&dir.join("corpus.dtr"), |w| {
                dirsim_trace::io::write_binary(w, pops.workload().take(CORPUS_REFS as usize))
                    .map(drop)
            })?;
            let results = oracle(workload::sim_config(workload))
                .run(&schemes, CORPUS_CACHES, pops.source(CORPUS_REFS))
                .map_err(|e| e.to_string())?;
            results.iter().map(check::result_op).collect()
        }
        Workload::Wide => {
            let wide = load(&dir, "wide")?;
            let results = oracle(workload::sim_config(workload))
                .run(&schemes, WIDE_CACHES, wide.source(WIDE_REFS))
                .map_err(|e| e.to_string())?;
            results.iter().map(check::result_op).collect()
        }
        Workload::Grid => {
            let spec = SweepSpec::parse(&grid_spec(&dir)).map_err(|e| e.to_string())?;
            let [refs] = spec.refs[..] else {
                return Err("the grid spec must name one `refs` value".into());
            };
            let mut ops = Vec::new();
            for source in &spec.scenarios {
                let SweepSource::Scenario(scenario) = source else {
                    return Err(format!("grid source `{}` is not a scenario", source.name()));
                };
                let config = scenario.config();
                let results: Vec<SimResult> = oracle(SimConfig::default())
                    .run(&schemes, config.processes, scenario.source(refs as u64))
                    .map_err(|e| e.to_string())?;
                ops.extend(results.iter().map(|r| {
                    check::record_op(&check::record_of(
                        r,
                        scenario.name(),
                        u32::from(config.cpus),
                    ))
                }));
            }
            ops
        }
    };
    let oracle_json = Expected::oracle_json(&ops).to_string_compact();
    write(&dir.join(oracle_file(workload)), oracle_json.as_bytes())?;
    eprintln!(
        "perfbench: {} seed {seed}: oracle digest {:016x}",
        workload.name(),
        check::combined(&ops)
    );
    write(&dir.join(marker(workload)), b"")
}

/// The grid spec with its `scenarios` line naming the seeded copies.
fn grid_spec(dir: &Path) -> String {
    let paths: Vec<String> = GRID_SCENARIOS
        .iter()
        .map(|name| dir.join(format!("{name}.scn")).display().to_string())
        .collect();
    GRID_SPEC
        .lines()
        .map(|line| {
            if line.starts_with("scenarios") {
                format!("scenarios   = {}\n", paths.join(", "))
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

fn load(dir: &Path, name: &str) -> Result<Scenario, String> {
    Scenario::from_file(dir.join(format!("{name}.scn"))).map_err(|e| e.to_string())
}

fn evict_other_seeds(work: &Path, keep: &Path) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(work) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_seed = entry.file_name().to_string_lossy().starts_with("seed-");
        if is_seed && path != keep {
            fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_with<F>(path: &Path, fill: F) -> Result<(), String>
where
    F: FnOnce(&mut BufWriter<fs::File>) -> Result<(), dirsim_trace::TraceIoError>,
{
    let file = fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    fill(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_copies_keep_the_scenario_and_change_only_the_seed() {
        for (name, template) in SCENARIOS {
            let base = Scenario::parse(template).unwrap();
            let a = Scenario::parse(&seeded_scenario(template, DEFAULT_SEED).unwrap()).unwrap();
            let b = Scenario::parse(&seeded_scenario(template, HELD_OUT_SEED).unwrap()).unwrap();
            assert_eq!(a.name(), name);
            assert_ne!(a.config().seed, b.config().seed);
            let mut reseeded = a.config().clone();
            reseeded.seed = base.config().seed;
            assert_eq!(&reseeded, base.config(), "{name}: only the seed may change");
        }
    }

    #[test]
    fn the_grid_spec_is_the_paper_grid() {
        let ours = SweepSpec::parse(GRID_SPEC).unwrap();
        let paper =
            SweepSpec::parse(include_str!("../../crates/sweep/specs/paper-grid.sweep")).unwrap();
        assert_eq!(ours.schemes, paper.schemes);
        let names = |s: &SweepSpec| -> Vec<String> {
            s.scenarios.iter().map(|x| x.name().to_string()).collect()
        };
        assert_eq!(names(&ours), names(&paper));
        assert_eq!(ours.cell_count(), 48);
    }

    #[test]
    fn wide_has_one_cache_per_process() {
        let wide = Scenario::parse(SCENARIOS[3].1).unwrap();
        assert_eq!(wide.config().processes, WIDE_CACHES);
    }
}
