//! The workloads and the input each derives from `--seed`. README.md
//! says why each was chosen.

use ute_cluster::config::ClusterConfig;
use ute_cluster::program::JobProgram;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 1 program, 4 nodes x 4 threads: long per-node streams.
    Table1Deep,
    /// Closed-loop analyst queries against a finished Table 1 run.
    ViewSession,
}

pub const ALL: [Kind; 2] = [Kind::Table1Deep, Kind::ViewSession];

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1Deep => "table1_deep",
            Kind::ViewSession => "view_session",
        }
    }
}

/// Inner-loop iterations of the Table 1 program: ~330k raw records,
/// ~1.3 s per pipeline run on 2 cores. The seed moves it by at most 1%.
const TABLE1_ITERATIONS: u32 = 8000;
/// Iterations in `--tiny` mode, for smoke tests.
const TABLE1_ITERATIONS_TINY: u32 = 200;

/// What one pipeline run ingests: the Table 1 program,
/// `ute pipeline --workload scaling --iterations N`. Both workloads
/// ingest it; `view_session` queries the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub iterations: u32,
}

impl Input {
    /// Derives the input from the benchmark seed.
    pub fn from_seed(seed: u64, tiny: bool) -> Input {
        let base = if tiny {
            TABLE1_ITERATIONS_TINY
        } else {
            TABLE1_ITERATIONS
        };
        let spread = base / 100;
        let offset = Rng::new(seed).below(u64::from(2 * spread + 1)) as u32;
        Input {
            iterations: base - spread + offset,
        }
    }

    /// The `ute pipeline` arguments that select this input.
    pub fn cli_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            "scaling".into(),
            "--iterations".into(),
            self.iterations.to_string(),
        ]
    }

    /// The run config `ute pipeline` journals for this input.
    pub fn config_pairs(&self) -> Vec<(String, String)> {
        vec![
            ("workload".into(), "scaling".into()),
            ("iterations".into(), self.iterations.to_string()),
            ("strict".into(), "0".into()),
        ]
    }

    /// The simulated machine and program, as `ute pipeline` builds them.
    pub fn program(&self) -> (ClusterConfig, JobProgram) {
        let w = ute_workloads::scaling::scaled_job(self.iterations);
        (w.config, w.job)
    }

    /// The same program at a quarter of the iterations, for the
    /// per-layer Table 1 flatness check.
    pub fn quarter(&self) -> Input {
        Input {
            iterations: (self.iterations / 4).max(1),
        }
    }
}

/// SplitMix64: a small, fixed generator so inputs depend on the seed
/// alone, not on a library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0b5e_7a1e_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_iterations_stay_within_one_percent() {
        for seed in 0..200 {
            let iterations = Input::from_seed(seed, false).iterations;
            assert!((7920..=8080).contains(&iterations), "{iterations}");
        }
    }

    #[test]
    fn same_seed_same_input() {
        assert_eq!(Input::from_seed(42, false), Input::from_seed(42, false));
        assert_ne!(Input::from_seed(1, false), Input::from_seed(2, false));
    }

    #[test]
    fn workload_names_round_trip() {
        for k in ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("torture_wide"), None);
    }
}
