//! Grid cells and their stable identity.
//!
//! A [`Cell`] is one point of the evaluation grid: a scheme over a
//! workload at a geometry and CPU count, simulated for a fixed number of
//! references. Its identity is an FNV-1a 64-bit hash of the *full*
//! configuration — including the scenario's canonical spec text
//! ([`Scenario::to_spec`]), so editing a `.scn` file changes the hash and
//! the cell re-runs, while re-running an unchanged spec finds every hash
//! already in the store. Cells over external trace files
//! ([`CellInput::Trace`]) hash the trace path plus its byte length in
//! place of the spec text — rewriting the file re-runs its cells under
//! the same cheap-to-check rule.
//!
//! A [`CellRecord`] is the stored result. It deliberately carries both
//! cost pricings (pipelined and non-pipelined cycles per reference) plus
//! the raw counts: the paper's §4 separation of event frequencies from
//! event costs means one simulation run answers every pricing question,
//! so `cost-models` in the spec only selects report columns and never
//! forces a re-run. It also deliberately omits wall-clock time, so an
//! identical cell always serialises to identical bytes — that is what
//! makes "resumed store equals from-scratch store" testable.

use dirsim::SimResult;
use dirsim_cost::CostModel;
use dirsim_mem::CacheGeometry;
use dirsim_obs::{json::float, Json};
use dirsim_protocol::Scheme;
use dirsim_trace::synth::WorkloadConfig;
use dirsim_trace::Scenario;

/// Identity-format version; bump to force a whole-grid re-run.
pub const CELL_IDENTITY_VERSION: u32 = 1;

/// What a cell simulates: a synthetic workload regenerated from its
/// scenario seed, or an external trace file streamed through
/// `open_trace` at run time.
#[derive(Debug, Clone)]
pub enum CellInput {
    /// Synthetic workload (CPU override already applied).
    Synthetic(WorkloadConfig),
    /// External trace/corpus file.
    Trace {
        /// Path as the spec wrote it.
        path: String,
        /// Byte length at spec-parse time; part of the identity hash.
        len: u64,
    },
}

/// One point of the evaluation grid, ready to run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Coherence scheme.
    pub scheme: Scheme,
    /// Scenario display name (the trace path for trace cells).
    pub scenario: String,
    /// The reference stream to simulate.
    pub input: CellInput,
    /// Cache geometry; `None` is the paper's infinite cache.
    pub geometry: Option<CacheGeometry>,
    /// CPU-count override from the spec; `None` kept the scenario default.
    pub cpus: Option<u16>,
    /// References to simulate.
    pub refs: usize,
    /// Stable identity hash (16 hex digits).
    pub hash: String,
}

impl Cell {
    /// Builds a cell and computes its identity hash.
    pub fn new(
        scheme: Scheme,
        scenario: &Scenario,
        config: WorkloadConfig,
        geometry: Option<CacheGeometry>,
        cpus: Option<u16>,
        refs: usize,
    ) -> Cell {
        let identity = format!(
            "dirsim-sweep-cell-v{CELL_IDENTITY_VERSION}\nscheme={}\nscenario={}\nspec={}\ngeometry={}\ncpus={}\nrefs={}\n",
            scheme.name(),
            scenario.name(),
            scenario.to_spec(),
            geometry_label(geometry),
            cpus_label(cpus),
            refs,
        );
        Cell {
            scheme,
            scenario: scenario.name().to_string(),
            input: CellInput::Synthetic(config),
            geometry,
            cpus,
            refs,
            hash: format!("{:016x}", fnv1a64(identity.as_bytes())),
        }
    }

    /// Builds a cell over an external trace file and computes its
    /// identity hash. The hash covers the trace path *and* its byte
    /// length: rewriting the file re-runs its cells (the length is a
    /// cheap content heuristic — a same-length edit needs a store
    /// delete), while two axis entries naming different paths are
    /// different cells by construction.
    pub fn from_trace(
        scheme: Scheme,
        path: &str,
        len: u64,
        geometry: Option<CacheGeometry>,
        cpus: Option<u16>,
        refs: usize,
    ) -> Cell {
        let identity = format!(
            "dirsim-sweep-cell-v{CELL_IDENTITY_VERSION}\nscheme={}\nscenario={path}\nspec=trace:{path}?len={len}\ngeometry={}\ncpus={}\nrefs={}\n",
            scheme.name(),
            geometry_label(geometry),
            cpus_label(cpus),
            refs,
        );
        Cell {
            scheme,
            scenario: path.to_string(),
            input: CellInput::Trace {
                path: path.to_string(),
                len,
            },
            geometry,
            cpus,
            refs,
            hash: format!("{:016x}", fnv1a64(identity.as_bytes())),
        }
    }

    /// The geometry as a spec label (`infinite` or `SETSxWAYS`).
    pub fn geometry_label(&self) -> String {
        geometry_label(self.geometry)
    }
}

/// Renders a geometry the way sweep specs write it.
pub fn geometry_label(geometry: Option<CacheGeometry>) -> String {
    match geometry {
        None => "infinite".to_string(),
        Some(g) => format!("{}x{}", g.sets, g.ways),
    }
}

/// Renders a CPU override the way sweep specs write it.
pub fn cpus_label(cpus: Option<u16>) -> String {
    match cpus {
        None => "default".to_string(),
        Some(n) => n.to_string(),
    }
}

/// FNV-1a, 64 bit: tiny, dependency-free, and stable across platforms —
/// exactly what a store key needs (this is an identity, not a defence
/// against adversarial collisions).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One completed cell, as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's identity hash.
    pub hash: String,
    /// Scheme name (paper notation).
    pub scheme: String,
    /// Scenario display name.
    pub scenario: String,
    /// Geometry label (`infinite` or `SETSxWAYS`).
    pub geometry: String,
    /// Resolved CPU count the cell ran with.
    pub cpus: u32,
    /// References processed.
    pub refs: u64,
    /// References that caused at least one bus operation.
    pub transactions: u64,
    /// Distinct blocks touched (= cold misses).
    pub distinct_blocks: u64,
    /// Capacity replacements (finite-geometry cells only).
    pub evictions: u64,
    /// Data-miss rate.
    pub miss_rate: f64,
    /// Bus cycles per reference under the pipelined bus (Table 5 pricing).
    pub pipelined_cpr: f64,
    /// Bus cycles per reference under the non-pipelined bus (Table 6).
    pub non_pipelined_cpr: f64,
}

impl CellRecord {
    /// The record `cell` stores for its simulated `result`, run with
    /// `cpus` caches.
    pub fn new(cell: &Cell, result: &SimResult, cpus: u32) -> CellRecord {
        CellRecord {
            hash: cell.hash.clone(),
            scheme: result.scheme.clone(),
            scenario: cell.scenario.clone(),
            geometry: cell.geometry_label(),
            cpus,
            refs: result.refs,
            transactions: result.transactions,
            distinct_blocks: result.distinct_blocks,
            evictions: result.capacity_evictions,
            miss_rate: result.events.data_miss_rate(),
            pipelined_cpr: result.cycles_per_ref(CostModel::pipelined()),
            non_pipelined_cpr: result.cycles_per_ref(CostModel::non_pipelined()),
        }
    }

    /// Cycles per reference under the given pricing.
    pub fn cycles_per_ref(&self, model: crate::spec::CostModelKind) -> f64 {
        match model {
            crate::spec::CostModelKind::Pipelined => self.pipelined_cpr,
            crate::spec::CostModelKind::NonPipelined => self.non_pipelined_cpr,
        }
    }

    /// Serialises to the store's JSON record body.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("record".to_string(), Json::Str("cell".to_string())),
            ("hash".to_string(), Json::Str(self.hash.clone())),
            ("scheme".to_string(), Json::Str(self.scheme.clone())),
            ("scenario".to_string(), Json::Str(self.scenario.clone())),
            ("geometry".to_string(), Json::Str(self.geometry.clone())),
            ("cpus".to_string(), Json::Int(i128::from(self.cpus))),
            ("refs".to_string(), Json::Int(i128::from(self.refs))),
            (
                "transactions".to_string(),
                Json::Int(i128::from(self.transactions)),
            ),
            (
                "distinct_blocks".to_string(),
                Json::Int(i128::from(self.distinct_blocks)),
            ),
            (
                "evictions".to_string(),
                Json::Int(i128::from(self.evictions)),
            ),
            ("miss_rate".to_string(), float(self.miss_rate)),
            ("pipelined_cpr".to_string(), float(self.pipelined_cpr)),
            (
                "non_pipelined_cpr".to_string(),
                float(self.non_pipelined_cpr),
            ),
        ])
    }

    /// Parses a store record body.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<CellRecord, String> {
        let text = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell record lacks string `{key}`"))
        };
        let count = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell record lacks count `{key}`"))
        };
        let rate = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell record lacks number `{key}`"))
        };
        Ok(CellRecord {
            hash: text("hash")?,
            scheme: text("scheme")?,
            scenario: text("scenario")?,
            geometry: text("geometry")?,
            cpus: {
                let cpus = count("cpus")?;
                u32::try_from(cpus).map_err(|_| format!("cpus {cpus} out of range"))?
            },
            refs: count("refs")?,
            transactions: count("transactions")?,
            distinct_blocks: count("distinct_blocks")?,
            evictions: count("evictions")?,
            miss_rate: rate("miss_rate")?,
            pipelined_cpr: rate("pipelined_cpr")?,
            non_pipelined_cpr: rate("non_pipelined_cpr")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scheme: Scheme, cpus: Option<u16>, refs: usize) -> Cell {
        let scenario = Scenario::named("pops").unwrap();
        Cell::new(
            scheme,
            scenario,
            scenario.config().clone(),
            None,
            cpus,
            refs,
        )
    }

    #[test]
    fn identity_is_stable_and_axis_sensitive() {
        let base = cell(Scheme::dir0_b(), None, 1000);
        assert_eq!(base.hash, cell(Scheme::dir0_b(), None, 1000).hash);
        assert_eq!(base.hash.len(), 16);
        assert_ne!(base.hash, cell(Scheme::Wti, None, 1000).hash);
        assert_ne!(base.hash, cell(Scheme::dir0_b(), Some(8), 1000).hash);
        assert_ne!(base.hash, cell(Scheme::dir0_b(), None, 2000).hash);

        let scenario = Scenario::named("pops").unwrap();
        let finite = Cell::new(
            Scheme::dir0_b(),
            scenario,
            scenario.config().clone(),
            Some(CacheGeometry { sets: 64, ways: 4 }),
            None,
            1000,
        );
        assert_ne!(base.hash, finite.hash);
        assert_eq!(finite.geometry_label(), "64x4");

        let other = Scenario::named("thor").unwrap();
        let thor = Cell::new(
            Scheme::dir0_b(),
            other,
            other.config().clone(),
            None,
            None,
            1000,
        );
        assert_ne!(base.hash, thor.hash);
    }

    #[test]
    fn trace_identity_covers_path_length_and_axes() {
        let base = Cell::from_trace(Scheme::dir0_b(), "a.dtr", 160, None, None, 1000);
        assert_eq!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "a.dtr", 160, None, None, 1000).hash
        );
        assert_eq!(base.scenario, "a.dtr");
        assert!(matches!(base.input, CellInput::Trace { ref path, len: 160 } if path == "a.dtr"));
        // A rewritten file (new length), a different path, and a different
        // scheme are all different cells.
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "a.dtr", 176, None, None, 1000).hash
        );
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::dir0_b(), "b.dtr", 160, None, None, 1000).hash
        );
        assert_ne!(
            base.hash,
            Cell::from_trace(Scheme::Wti, "a.dtr", 160, None, None, 1000).hash
        );
        // And a trace cell never collides with a synthetic one.
        assert_ne!(base.hash, cell(Scheme::dir0_b(), None, 1000).hash);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let record = CellRecord {
            hash: "00ff00ff00ff00ff".to_string(),
            scheme: "Dir1NB".to_string(),
            scenario: "pops".to_string(),
            geometry: "infinite".to_string(),
            cpus: 4,
            refs: 2000,
            transactions: 137,
            distinct_blocks: 44,
            evictions: 0,
            miss_rate: 0.0625,
            pipelined_cpr: 0.3531,
            non_pipelined_cpr: 0.7062,
        };
        let json = record.to_json();
        assert_eq!(json.get("record").and_then(Json::as_str), Some("cell"));
        let back = CellRecord::from_json(&Json::parse(&json.to_string_compact()).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn record_parse_names_the_missing_field() {
        let err =
            CellRecord::from_json(&Json::parse("{\"record\":\"cell\"}").unwrap()).unwrap_err();
        assert!(err.contains("hash"), "{err}");
    }
}
