//! Command line: `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PageUpdate,
    Tpcc,
    SnapshotScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PageUpdate, Workload::Tpcc, Workload::SnapshotScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageUpdate => "page_update",
            Workload::Tpcc => "tpcc",
            Workload::SnapshotScan => "snapshot_scan",
        }
    }
}

/// Checked command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measured host time to accumulate over passes.
    pub seconds: u64,
    /// `true`: the traced run (per-layer metrics); `false`: end-to-end.
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <page_update|tpcc|snapshot_scan> --seed <n> --seconds <1..=60> \
     --trace <0|1>";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=60).contains(&s) {
                        return Err(format!("--seconds {s} is outside 1..=60"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = Args::parse(&argv("--workload tpcc --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Tpcc);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload tpcc --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload tpcc --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload tpcc --seed 1 --seconds 1")).is_err());
        assert!(Args::parse(&argv("--workload tpcc --seed")).is_err());
    }
}
