//! The host side of a record: provenance, process resource use, and the
//! order statistics every metric is reported with.

use std::fs;

use dirsim::KernelPolicy;
use dirsim_obs::Json;

use crate::fixture::{Inputs, DEFAULT_SEED, GRID_SCENARIOS, HELD_OUT_SEED};
use crate::workload::{self, Workload};

/// Median of `values` (interpolated between the middle pair).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, linearly interpolated between order
/// statistics (`q = 0.75` over 48 samples leaves 12 beyond it).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets the process's `VmHWM` to its current resident set, so that the
/// next [`peak_rss_mib`] reads the peak since this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// User + system CPU seconds of the whole process so far, all threads
/// included (exited ones too). `/proc` reports them in USER_HZ ticks,
/// which Linux fixes at 100 per second for this interface.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn int(n: u64) -> Json {
    Json::Int(i128::from(n))
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Per-workload input sizes.
fn input_sizes(workload: Workload, inputs: &Inputs) -> Json {
    let pairs: Vec<(&str, Json)> = match workload {
        Workload::Corpus => vec![
            ("refs", int(workload::CORPUS_REFS)),
            ("caches", int(u64::from(workload::CORPUS_CACHES))),
            (
                "corpus_bytes",
                int(fs::metadata(inputs.corpus()).map_or(0, |m| m.len())),
            ),
            ("geometry", text("infinite")),
        ],
        Workload::Grid => {
            let spec = dirsim_sweep::SweepSpec::parse(crate::fixture::GRID_SPEC)
                .expect("the committed grid spec parses");
            vec![
                ("cells", int(spec.cell_count() as u64)),
                ("refs_per_cell", int(spec.refs[0] as u64)),
                ("scenarios", text(&GRID_SCENARIOS.join(","))),
                ("geometry", text("infinite")),
            ]
        }
        Workload::Wide => vec![
            ("refs", int(workload::WIDE_REFS)),
            ("caches", int(u64::from(workload::WIDE_CACHES))),
            (
                "geometry",
                text(&format!(
                    "{}x{}",
                    workload::WIDE_GEOMETRY.sets,
                    workload::WIDE_GEOMETRY.ways
                )),
            ),
        ],
    };
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Which code, build, host and input produced a record.
pub fn provenance(
    workload: Workload,
    seed: u64,
    rustc: &str,
    commit: &str,
    inputs: &Inputs,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let policy = format!("{:?}", KernelPolicy::Auto.effective());
    Json::Obj(vec![
        ("record".into(), text("provenance")),
        ("workload".into(), text(workload.name())),
        ("seed".into(), int(seed)),
        ("default_seed".into(), int(DEFAULT_SEED)),
        ("held_out_seed".into(), int(HELD_OUT_SEED)),
        ("commit".into(), text(commit)),
        ("rustc".into(), text(rustc)),
        ("profile".into(), text(profile)),
        ("features".into(), text("default")),
        ("kernel_policy".into(), text(&policy)),
        ("nproc".into(), int(nproc)),
        ("cpu_model".into(), text(&cpu_model())),
        ("threads".into(), int(workload.threads() as u64)),
        ("inputs".into(), input_sizes(workload, inputs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.75), 3.25);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
