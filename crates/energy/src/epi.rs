//! The machine energy/timing model: EPI per instruction category, per-level
//! memory access costs, amnesic-structure costs, and probe costs.

use amnesiac_isa::Category;
use amnesiac_mem::ServiceLevel;

/// The paper's mean non-memory EPI (nJ), from the Xeon Phi measurements of
/// Shao & Brooks used in §5.5.
pub const EPI_NON_MEM_DEFAULT: f64 = 0.45;

/// The paper's default compute/communication ratio
/// `R = EPI_non-mem / EPI_ld(Mem) = 0.45 / 52.14`.
pub const R_DEFAULT: f64 = EPI_NON_MEM_DEFAULT / 52.14;

/// Energy (nJ) and timing (cycles) model of the simulated machine.
///
/// Defaults follow the paper's Table 3 and §4 modelling decisions:
/// `RCMP` costs a conditional branch, `REC` a store to L1-D, `RTN` a jump;
/// `Hist` is modelled after L1-D, `SFile` after the physical register file,
/// and `IBuff` after L1-I.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// EPI (nJ) of non-memory instructions, indexed per [`Category`] via
    /// [`EnergyModel::epi`]. Memory categories are serviced per level
    /// instead.
    int_alu: f64,
    int_mul: f64,
    int_div: f64,
    fp_add: f64,
    fp_mul: f64,
    fp_div: f64,
    fma: f64,
    branch: f64,
    jump: f64,
    /// Load energy per service level `[L1, L2, Mem]` (nJ).
    pub load_nj: [f64; 3],
    /// Store energy per service level `[L1, L2, Mem]` (nJ).
    pub store_nj: [f64; 3],
    /// Energy of a dirty write-back `[L1→L2, L2→Mem]` (nJ).
    pub writeback_nj: [f64; 2],
    /// Tag-probe energy per level `[L1, L2]` (nJ); the overhead the FLC/LLC
    /// policies pay to detect a miss before firing recomputation.
    pub probe_nj: [f64; 2],
    /// Tag-probe latency per level `[L1, L2]` (cycles).
    pub probe_cycles: [u64; 2],
    /// Load/store service latency per level `[L1, L2, Mem]` (cycles), from
    /// Table 3 round-trip times at 1.09 GHz.
    pub mem_cycles: [u64; 3],
    /// Latency of a non-memory instruction (cycles).
    pub op_cycles: u64,
    /// `Hist` read (leaf operand fetch) — modelled after L1-D.
    pub hist_read_nj: f64,
    /// `Hist` write (`REC` checkpoint) — modelled after an L1-D store.
    pub hist_write_nj: f64,
    /// Extra stall cycles per `Hist`-reading recomputing instruction.
    /// Zero by default: the paper's §3.5 keeps the latency of recomputing
    /// instructions "very similar to its classic counterpart" — `Hist` is
    /// an alternative operand supply of similar (pipelined) latency.
    pub hist_cycles: u64,
    /// `SFile` access (read or write) — modelled after the register file.
    pub sfile_nj: f64,
    /// `IBuff` per-instruction fetch energy on replay hits.
    pub ibuff_read_nj: f64,
    /// Fill energy charged once per `IBuff` miss, when a slice's body
    /// enters `IBuff` (one L1-I style line access; the body's instruction
    /// fetches are charged through L1-I separately).
    pub ibuff_fill_nj: f64,
    /// Multiplier applied to all non-memory EPIs (the §5.5 `R` knob),
    /// retained for reporting.
    pub r_factor: f64,
}

impl EnergyModel {
    /// The paper's Table 3 / §4 model.
    pub fn paper() -> Self {
        EnergyModel {
            // Calibrated so the dynamic-mix-weighted mean over typical
            // workloads is ≈ EPI_NON_MEM_DEFAULT = 0.45 nJ.
            int_alu: 0.35,
            int_mul: 0.65,
            int_div: 1.20,
            fp_add: 0.45,
            fp_mul: 0.55,
            fp_div: 1.60,
            fma: 0.70,
            branch: 0.30,
            jump: 0.25,
            load_nj: [0.88, 7.72, 52.14],
            store_nj: [0.88, 7.72, 62.14],
            writeback_nj: [7.72, 62.14],
            // a probe is a tag-array check: a fraction of a full access
            probe_nj: [0.22, 1.93],
            probe_cycles: [2, 13],
            // 3.66ns, 24.77ns, 100ns at 1.09 GHz
            mem_cycles: [4, 27, 109],
            op_cycles: 1,
            hist_read_nj: 0.88,
            hist_write_nj: 0.88,
            hist_cycles: 0,
            sfile_nj: 0.02,
            ibuff_read_nj: 0.11,
            ibuff_fill_nj: 0.88,
            r_factor: 1.0,
        }
    }

    /// Returns a copy with every non-memory EPI (including the amnesic
    /// control overheads `RCMP`/`RTN`) multiplied by `factor`, implementing
    /// the §5.5 break-even sweep over `R = factor × R_default`.
    ///
    /// `REC` and `Hist` costs are memory-structure costs and stay fixed.
    pub fn with_r_factor(&self, factor: f64) -> Self {
        let mut m = self.clone();
        m.int_alu *= factor;
        m.int_mul *= factor;
        m.int_div *= factor;
        m.fp_add *= factor;
        m.fp_mul *= factor;
        m.fp_div *= factor;
        m.fma *= factor;
        m.branch *= factor;
        m.jump *= factor;
        m.sfile_nj *= factor;
        m.r_factor = self.r_factor * factor;
        m
    }

    /// EPI (nJ) of a non-memory instruction category.
    ///
    /// # Panics
    ///
    /// Panics on `Load`/`Store`: those are serviced per level via
    /// [`EnergyModel::load_nj`]/[`EnergyModel::store_nj`]. `Rec` energy is
    /// [`EnergyModel::hist_write_nj`] (an L1-D store, §4).
    #[inline]
    pub fn epi(&self, category: Category) -> f64 {
        match category {
            Category::IntAlu => self.int_alu,
            Category::IntMul => self.int_mul,
            Category::IntDiv => self.int_div,
            Category::FpAdd => self.fp_add,
            Category::FpMul => self.fp_mul,
            Category::FpDiv => self.fp_div,
            Category::Fma => self.fma,
            Category::Branch => self.branch,
            Category::Jump => self.jump,
            Category::Rcmp => self.branch,
            Category::Rtn => self.jump,
            Category::Rec => self.hist_write_nj,
            Category::Load | Category::Store => {
                panic!("memory categories are costed per service level")
            }
        }
    }

    /// Load energy (nJ) serviced at `level`.
    #[inline]
    pub fn load_energy(&self, level: ServiceLevel) -> f64 {
        self.load_nj[level.index()]
    }

    /// Store energy (nJ) serviced at `level`.
    #[inline]
    pub fn store_energy(&self, level: ServiceLevel) -> f64 {
        self.store_nj[level.index()]
    }

    /// Load/store latency (cycles) serviced at `level`.
    #[inline]
    pub fn mem_latency(&self, level: ServiceLevel) -> u64 {
        self.mem_cycles[level.index()]
    }

    /// The probabilistic per-load energy `Σ PrLi × EPI_Li` of §3.1.1.
    pub fn probabilistic_load_energy(&self, pr: [f64; 3]) -> f64 {
        pr.iter().zip(self.load_nj.iter()).map(|(p, e)| p * e).sum()
    }

    /// The probabilistic per-load latency `Σ PrLi × latency_Li` (cycles).
    pub fn probabilistic_load_latency(&self, pr: [f64; 3]) -> f64 {
        pr.iter()
            .zip(self.mem_cycles.iter())
            .map(|(p, &c)| p * c as f64)
            .sum()
    }

    /// Mean non-memory EPI of a given instruction mix (counts per
    /// category), used for §5.5 reporting.
    pub fn mean_non_mem_epi(&self, mix: &[(Category, u64)]) -> f64 {
        let mut energy = 0.0;
        let mut count = 0u64;
        for &(cat, n) in mix {
            if cat.is_non_mem() && !matches!(cat, Category::Rec) {
                energy += self.epi(cat) * n as f64;
                count += n;
            }
        }
        if count == 0 {
            EPI_NON_MEM_DEFAULT
        } else {
            energy / count as f64
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_table3() {
        let m = EnergyModel::paper();
        assert_eq!(m.load_energy(ServiceLevel::L1), 0.88);
        assert_eq!(m.load_energy(ServiceLevel::L2), 7.72);
        assert_eq!(m.load_energy(ServiceLevel::Mem), 52.14);
        assert_eq!(m.store_energy(ServiceLevel::Mem), 62.14);
        assert_eq!(m.mem_latency(ServiceLevel::L1), 4);
        assert_eq!(m.mem_latency(ServiceLevel::L2), 27);
        assert_eq!(m.mem_latency(ServiceLevel::Mem), 109);
    }

    #[test]
    fn r_default_matches_paper() {
        assert!((R_DEFAULT - 0.0086).abs() < 2e-4, "R_default ≈ 0.0086");
    }

    #[test]
    fn amnesic_overheads_follow_section4() {
        let m = EnergyModel::paper();
        assert_eq!(m.epi(Category::Rcmp), m.epi(Category::Branch));
        assert_eq!(m.epi(Category::Rtn), m.epi(Category::Jump));
        assert_eq!(m.epi(Category::Rec), m.hist_write_nj);
        assert_eq!(m.hist_read_nj, m.load_energy(ServiceLevel::L1));
    }

    #[test]
    fn r_factor_scales_compute_only() {
        let m = EnergyModel::paper();
        let m2 = m.with_r_factor(10.0);
        assert_eq!(m2.epi(Category::IntAlu), 10.0 * m.epi(Category::IntAlu));
        assert_eq!(m2.epi(Category::Fma), 10.0 * m.epi(Category::Fma));
        assert_eq!(m2.epi(Category::Rcmp), 10.0 * m.epi(Category::Rcmp));
        assert_eq!(m2.load_nj, m.load_nj, "loads unchanged");
        assert_eq!(m2.hist_read_nj, m.hist_read_nj, "Hist unchanged");
        assert_eq!(m2.r_factor, 10.0);
        // composing factors multiplies
        assert!((m2.with_r_factor(2.0).r_factor - 20.0).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_load_energy_is_expectation() {
        let m = EnergyModel::paper();
        let e = m.probabilistic_load_energy([0.5, 0.25, 0.25]);
        assert!((e - (0.5 * 0.88 + 0.25 * 7.72 + 0.25 * 52.14)).abs() < 1e-12);
        assert_eq!(m.probabilistic_load_energy([1.0, 0.0, 0.0]), 0.88);
        let lat = m.probabilistic_load_latency([0.0, 0.0, 1.0]);
        assert_eq!(lat, 109.0);
    }

    #[test]
    #[should_panic(expected = "per service level")]
    fn load_epi_panics() {
        EnergyModel::paper().epi(Category::Load);
    }

    #[test]
    fn mean_non_mem_epi_near_paper_value() {
        let m = EnergyModel::paper();
        // a representative dynamic mix: mostly int-alu with some fp and
        // branches, as in the evaluated benchmarks
        let mix = [
            (Category::IntAlu, 55u64),
            (Category::IntMul, 5),
            (Category::FpAdd, 10),
            (Category::FpMul, 8),
            (Category::Fma, 4),
            (Category::Branch, 15),
            (Category::Jump, 3),
            (Category::Load, 100), // ignored
        ];
        let mean = m.mean_non_mem_epi(&mix);
        assert!(
            (mean - EPI_NON_MEM_DEFAULT).abs() < 0.08,
            "mix-weighted mean {mean} should be near 0.45"
        );
    }
}
