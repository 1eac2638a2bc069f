//! The output oracle: `perfbench/expected.json`, recorded once from the
//! program at the commit that defined the benchmark. Every run compares
//! its outputs against it; any mismatch is a failed operation.
//!
//! It holds, per paper-suite kernel and policy, simulated cycles, energy
//! and EDP gain; and per distinct serve input, a digest of the ok
//! payload (renamed miss files hash under their canonical kernel name,
//! so they share the `compile bench:<kernel>#paper` entry).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use amnesiac_telemetry::Json;

/// Expected simulated results of one kernel under one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimExpect {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated energy, nJ.
    pub energy_nj: f64,
    /// EDP gain over classic, percent (0 for the classic row).
    pub edp_gain_pct: f64,
}

/// The loaded oracle, or a recorder when `recording`.
#[derive(Debug)]
pub struct Oracle {
    path: PathBuf,
    recording: bool,
    sims: BTreeMap<String, BTreeMap<String, SimExpect>>,
    payloads: BTreeMap<String, String>,
    /// Human-readable descriptions of every mismatch seen.
    pub mismatches: Vec<String>,
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * b.abs().max(1e-9)
}

impl Oracle {
    /// Loads `path` (an absent file loads empty; checking against it
    /// then fails every output).
    ///
    /// # Errors
    ///
    /// Fails when the file exists but does not parse.
    pub fn load(path: &Path, recording: bool) -> Result<Oracle, String> {
        let mut oracle = Oracle {
            path: path.to_path_buf(),
            recording,
            sims: BTreeMap::new(),
            payloads: BTreeMap::new(),
            mismatches: Vec::new(),
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return Ok(oracle);
        };
        let doc =
            amnesiac_telemetry::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for (kernel, rows) in doc
            .get("paper_suite")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let entry = oracle.sims.entry(kernel.clone()).or_default();
            for (label, row) in rows.as_obj().unwrap_or_default() {
                let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                entry.insert(
                    label.clone(),
                    SimExpect {
                        cycles: num("cycles") as u64,
                        energy_nj: num("energy_nj"),
                        edp_gain_pct: num("edp_gain_pct"),
                    },
                );
            }
        }
        for (key, digest) in doc
            .get("payloads")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(digest) = digest.as_str() {
                oracle.payloads.insert(key.clone(), digest.to_string());
            }
        }
        Ok(oracle)
    }

    /// Checks (or records) one kernel/configuration result.
    pub fn check_sim(&mut self, kernel: &str, label: &str, got: SimExpect) -> bool {
        let slot = self.sims.entry(kernel.to_string()).or_default();
        match slot.get(label) {
            None if self.recording => {
                slot.insert(label.to_string(), got);
                true
            }
            Some(want)
                if want.cycles == got.cycles
                    && close(got.energy_nj, want.energy_nj)
                    && close(got.edp_gain_pct, want.edp_gain_pct) =>
            {
                true
            }
            want => {
                self.mismatches
                    .push(format!("{kernel}/{label}: expected {want:?}, got {got:?}"));
                false
            }
        }
    }

    /// Checks (or records) the payload digest of one serve input.
    pub fn check_payload(&mut self, key: &str, digest: u64) -> bool {
        let got = format!("{digest:016x}");
        match self.payloads.get(key) {
            None if self.recording => {
                self.payloads.insert(key.to_string(), got);
                true
            }
            Some(want) if *want == got => true,
            want => {
                self.mismatches
                    .push(format!("{key}: expected payload {want:?}, got {got}"));
                false
            }
        }
    }

    /// Writes the oracle back (recording mode only).
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn save(&self) -> Result<(), String> {
        if !self.recording {
            return Ok(());
        }
        let mut suite = Json::obj();
        for (kernel, rows) in &self.sims {
            let mut obj = Json::obj();
            for (label, e) in rows {
                obj.set(
                    label,
                    Json::obj()
                        .with("cycles", e.cycles)
                        .with("energy_nj", e.energy_nj)
                        .with("edp_gain_pct", e.edp_gain_pct),
                );
            }
            suite.set(kernel, obj);
        }
        let mut payloads = Json::obj();
        for (key, digest) in &self.payloads {
            payloads.set(key, digest.as_str());
        }
        let doc = Json::obj()
            .with(
                "about",
                "Expected outputs recorded from the program when the benchmark was defined; \
                 regenerate only with --record-expected on a commit known to be correct.",
            )
            .with("paper_suite", suite)
            .with("payloads", payloads);
        std::fs::write(&self.path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_then_checks() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/oracle-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("expected.json");
        let row = SimExpect {
            cycles: 10,
            energy_nj: 1.25,
            edp_gain_pct: 3.5,
        };
        let mut rec = Oracle::load(&path, true).unwrap();
        assert!(rec.check_sim("is", "FLC", row));
        assert!(rec.check_payload("disasm bench:is", 0xabc));
        rec.save().unwrap();
        let mut check = Oracle::load(&path, false).unwrap();
        assert!(check.check_sim("is", "FLC", row));
        assert!(check.check_payload("disasm bench:is", 0xabc));
        assert!(!check.check_payload("disasm bench:is", 0xabd));
        assert!(
            !check.check_payload("disasm bench:cg", 0xabc),
            "unknown input"
        );
        assert!(!check.check_sim("is", "FLC", SimExpect { cycles: 11, ..row }));
        assert_eq!(check.mismatches.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
