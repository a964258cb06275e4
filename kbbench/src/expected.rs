//! Expected simulated outputs for fixed seeds, stored next to the
//! benchmark in `expected.tsv`.
//!
//! Each row keys one simulated unit by workload, session seed and part
//! (a protocol name, or `query` for the final serve query) and holds its
//! simulated output as one tab-free string. A run compares every unit
//! whose key is in the table; units of other seeds (held-out seeds) are
//! checked by the run's invariants only. `--bless` merges a run's
//! outputs into the table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

type Key = (String, u64, String);

pub struct Expected {
    path: PathBuf,
    rows: BTreeMap<Key, String>,
}

impl Expected {
    /// Loads the table; a missing file is an empty table.
    pub fn load(path: &Path) -> Result<Self, String> {
        let mut rows = BTreeMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for (i, line) in text.lines().enumerate() {
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let parts: Vec<&str> = line.splitn(4, '\t').collect();
                    let [workload, seed, part, value] = parts[..] else {
                        return Err(format!("{}:{}: expected 4 fields", path.display(), i + 1));
                    };
                    let seed = seed
                        .parse()
                        .map_err(|_| format!("{}:{}: bad seed", path.display(), i + 1))?;
                    rows.insert(
                        (workload.to_string(), seed, part.to_string()),
                        value.to_string(),
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        }
        Ok(Expected {
            path: path.to_path_buf(),
            rows,
        })
    }

    /// `Some(true)` on a match, `Some(false)` on a mismatch, `None` when
    /// the table has no row for the key.
    pub fn check(&self, workload: &str, seed: u64, part: &str, got: &str) -> Option<bool> {
        self.rows
            .get(&(workload.to_string(), seed, part.to_string()))
            .map(|want| want == got)
    }

    pub fn insert(&mut self, workload: &str, seed: u64, part: &str, value: String) {
        self.rows
            .insert((workload.to_string(), seed, part.to_string()), value);
    }

    pub fn save(&self) -> Result<(), String> {
        let mut out = String::from(
            "# workload\tsession seed\tpart\tsimulated output (see src/expected.rs)\n",
        );
        for ((workload, seed, part), value) in &self.rows {
            out.push_str(&format!("{workload}\t{seed}\t{part}\t{value}\n"));
        }
        std::fs::write(&self.path, out).map_err(|e| format!("writing {}: {e}", self.path.display()))
    }
}
