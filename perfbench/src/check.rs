//! Output check: every op's simulated counters, hashed, against the
//! match-machine oracle and the committed digests.
//!
//! An op is one (scheme, trace) result: one `SimResult` of a broadcast
//! run, or one stored cell of the grid. Its digest is FNV-1a 64 over the
//! scheme name and every counter, so a single perturbed count changes it.

use std::collections::BTreeMap;

use dirsim::prelude::CostModel;
use dirsim::SimResult;
use dirsim_obs::Json;
use dirsim_sweep::cell::fnv1a64;
use dirsim_sweep::CellRecord;

/// One op's identity and digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Scheme name, or `scheme@scenario` for grid cells.
    pub name: String,
    /// FNV-1a 64 over the op's counters.
    pub digest: u64,
}

/// Digests every counter of one broadcast result.
pub fn result_op(r: &SimResult) -> Op {
    let mut words = vec![
        r.refs,
        r.transactions,
        r.distinct_blocks,
        r.capacity_evictions,
    ];
    words.extend(r.events.iter().map(|(_, n)| n));
    words.extend(r.ops.iter().map(|(_, n)| n));
    for (fanout, n) in r.fanout.iter() {
        words.extend([u64::from(fanout), n]);
    }
    Op {
        name: r.scheme.clone(),
        digest: digest(&r.scheme, &words),
    }
}

/// Digests one stored grid cell (everything but its identity hash).
pub fn record_op(r: &CellRecord) -> Op {
    let name = format!("{}@{}", r.scheme, r.scenario);
    let words = [
        u64::from(r.cpus),
        r.refs,
        r.transactions,
        r.distinct_blocks,
        r.evictions,
        r.miss_rate.to_bits(),
        r.pipelined_cpr.to_bits(),
        r.non_pipelined_cpr.to_bits(),
    ];
    let key = format!("{name}/{}", r.geometry);
    Op {
        digest: digest(&key, &words),
        name,
    }
}

/// The grid record a cell of `scenario` would store for `r`, built the
/// way the sweep executor builds it — so the oracle's broadcast result
/// can be compared with what `run_sweep` stored.
pub fn record_of(r: &SimResult, scenario: &str, cpus: u32) -> CellRecord {
    CellRecord {
        hash: String::new(),
        scheme: r.scheme.clone(),
        scenario: scenario.to_string(),
        geometry: "infinite".to_string(),
        cpus,
        refs: r.refs,
        transactions: r.transactions,
        distinct_blocks: r.distinct_blocks,
        evictions: r.capacity_evictions,
        miss_rate: r.events.data_miss_rate(),
        pipelined_cpr: r.cycles_per_ref(CostModel::pipelined()),
        non_pipelined_cpr: r.cycles_per_ref(CostModel::non_pipelined()),
    }
}

fn digest(key: &str, words: &[u64]) -> u64 {
    let mut bytes = key.as_bytes().to_vec();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One digest over a whole set of ops, independent of their order.
pub fn combined(ops: &[Op]) -> u64 {
    let sorted: BTreeMap<&str, u64> = ops.iter().map(|o| (o.name.as_str(), o.digest)).collect();
    let mut bytes = Vec::new();
    for (name, d) in sorted {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// What a run's ops are checked against.
#[derive(Debug)]
pub struct Expected {
    /// The oracle's digest per op name.
    pub oracle: BTreeMap<String, u64>,
    /// The committed combined digest for this seed, if one is committed.
    pub committed: Option<u64>,
}

impl Expected {
    /// Ops one run attempts.
    pub fn attempted(&self) -> usize {
        self.oracle.len()
    }

    /// Failed ops of one run: each oracle op that is missing or whose
    /// digest differs. When the run's ops agree with the oracle but not
    /// with the committed digest, the failing op cannot be named, so
    /// every op counts as failed.
    pub fn failed(&self, ops: &[Op]) -> usize {
        let got: BTreeMap<&str, u64> = ops.iter().map(|o| (o.name.as_str(), o.digest)).collect();
        let mismatched = self
            .oracle
            .iter()
            .filter(|(name, d)| got.get(name.as_str()) != Some(*d))
            .count();
        let extra = got
            .keys()
            .filter(|n| !self.oracle.contains_key(**n))
            .count();
        match self.committed {
            Some(c) if mismatched == 0 && extra == 0 && combined(ops) != c => self.attempted(),
            _ => (mismatched + extra).min(self.attempted()),
        }
    }

    /// Serialises the oracle digests (the fixture's `oracle` file).
    pub fn oracle_json(ops: &[Op]) -> Json {
        Json::Obj(
            ops.iter()
                .map(|o| (o.name.clone(), Json::Str(format!("{:016x}", o.digest))))
                .collect(),
        )
    }

    /// Parses an oracle file back into digests.
    pub fn parse_oracle(json: &Json) -> Result<BTreeMap<String, u64>, String> {
        let pairs = json.as_obj().ok_or("oracle file is not an object")?;
        pairs
            .iter()
            .map(|(name, v)| {
                let hex = v.as_str().ok_or("oracle digest is not a string")?;
                let d = u64::from_str_radix(hex, 16).map_err(|e| format!("{name}: {e}"))?;
                Ok((name.clone(), d))
            })
            .collect()
    }
}

/// The combined digest committed in `digests.json` for this workload and
/// seed, if any.
pub fn committed(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let json =
        Json::parse(include_str!("../digests.json")).map_err(|e| format!("digests.json: {e}"))?;
    let Some(entry) = json
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .and_then(|s| s.get(workload))
    else {
        return Ok(None);
    };
    let hex = entry
        .as_str()
        .ok_or_else(|| format!("digests.json: {workload}@{seed} is not a string"))?;
    u64::from_str_radix(hex, 16)
        .map(Some)
        .map_err(|e| format!("digests.json: {workload}@{seed}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim::prelude::EventKind;
    use dirsim::BroadcastSimulator;
    use dirsim_trace::Scenario;

    fn results() -> Vec<SimResult> {
        let pops = Scenario::named("pops").unwrap();
        let schemes = dirsim_protocol::Scheme::paper_lineup();
        BroadcastSimulator::paper()
            .run(&schemes, 4, pops.source(5_000))
            .unwrap()
    }

    fn expected(ops: &[Op]) -> Expected {
        Expected {
            oracle: ops.iter().map(|o| (o.name.clone(), o.digest)).collect(),
            committed: Some(combined(ops)),
        }
    }

    #[test]
    fn one_perturbed_counter_is_exactly_one_failed_op() {
        let results = results();
        let ops: Vec<Op> = results.iter().map(result_op).collect();
        let expected = expected(&ops);
        assert_eq!(expected.failed(&ops), 0);

        let mut perturbed = results.clone();
        perturbed[1].events.record(EventKind::RdHit);
        let ops: Vec<Op> = perturbed.iter().map(result_op).collect();
        assert_eq!(expected.failed(&ops), 1);
    }

    #[test]
    fn one_perturbed_grid_record_is_exactly_one_failed_op() {
        let records: Vec<CellRecord> = results().iter().map(|r| record_of(r, "pops", 4)).collect();
        let ops: Vec<Op> = records.iter().map(record_op).collect();
        let expected = expected(&ops);
        assert_eq!(expected.failed(&ops), 0);

        let mut perturbed = records.clone();
        perturbed[0].transactions += 1;
        let ops: Vec<Op> = perturbed.iter().map(record_op).collect();
        assert_eq!(expected.failed(&ops), 1);
    }

    #[test]
    fn a_missing_op_fails_and_a_committed_mismatch_fails_every_op() {
        let ops: Vec<Op> = results().iter().map(result_op).collect();
        let mut expected = expected(&ops);
        assert_eq!(expected.failed(&ops[1..]), 1);
        expected.committed = Some(combined(&ops) ^ 1);
        assert_eq!(expected.failed(&ops), ops.len());
    }

    #[test]
    fn oracle_digests_round_trip_through_json() {
        let ops: Vec<Op> = results().iter().map(result_op).collect();
        let json = Json::parse(&Expected::oracle_json(&ops).to_string_compact()).unwrap();
        assert_eq!(
            Expected::parse_oracle(&json).unwrap(),
            expected(&ops).oracle
        );
    }
}
