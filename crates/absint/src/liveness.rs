//! Backward liveness over the `SFile` slots of a slice body.
//!
//! Bodies are straight-line, so no fixpoint is needed; the analysis yields
//! the two facts the verifier wants: which producers are dead weight, and
//! the minimal number of concurrently live `SFile` slots any renamer would
//! need.

use amnesiac_isa::{OperandSource, SliceMeta};

/// Liveness facts about one slice body, derived from its operand plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceLiveness {
    /// Slice-relative indices of compute instructions whose value is never
    /// consumed — not by any later `SFile` operand and not the root.
    pub dead_producers: Vec<u16>,
    /// The minimal number of concurrently live `SFile` slots: the peak, over
    /// all points of the body, of values already produced and still awaiting
    /// a later `SFile` read (or the final root copy-out).
    pub peak_sfile: usize,
}

impl SliceLiveness {
    /// Analyzes a slice body via its plans (bodies are straight-line, so no
    /// fixpoint is needed).
    pub fn analyze(meta: &SliceMeta) -> SliceLiveness {
        let n = meta.compute_len();
        if n == 0 {
            return SliceLiveness {
                dead_producers: Vec::new(),
                peak_sfile: 0,
            };
        }
        // last_use[p] = body index of the last SFile read of producer p
        let mut last_use: Vec<Option<usize>> = vec![None; n];
        for (k, plan) in meta.plans.iter().enumerate() {
            for src in plan.sources.iter().flatten() {
                if let OperandSource::SFile { producer } = src {
                    let p = *producer as usize;
                    if p < n {
                        last_use[p] = Some(k);
                    }
                }
            }
        }
        let root = n - 1; // the root's value is retired by the RCMP
        let dead_producers: Vec<u16> = (0..n)
            .filter(|&p| p != root && last_use[p].is_none())
            .map(|p| p as u16)
            .collect();
        // peak concurrently live values: producer p is live on the half-open
        // interval (p, last_use[p]] — and the root to the end of the body
        let mut peak = 0usize;
        for k in 0..n {
            let live = (0..=k)
                .filter(|&p| {
                    if p == root {
                        return true;
                    }
                    matches!(last_use[p], Some(u) if u > k)
                })
                .count();
            peak = peak.max(live);
        }
        SliceLiveness {
            dead_producers,
            peak_sfile: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{OperandPlan, Reg, SliceId};

    fn meta_with(plans: Vec<OperandPlan>) -> SliceMeta {
        SliceMeta {
            id: SliceId(0),
            rcmp_pc: 0,
            entry: 0,
            len: plans.len() + 1,
            root_reg: Reg(1),
            plans,
            leaves: Vec::new(),
            has_nonrecomputable: false,
            est_recompute_nj: 0.0,
            est_load_nj: 0.0,
            height: 0,
        }
    }

    fn sfile(p: u16) -> Option<OperandSource> {
        Some(OperandSource::SFile { producer: p })
    }

    #[test]
    fn dead_producer_and_peak() {
        // 0: leaf (consumed by 2), 1: leaf (dead), 2: root reads producer 0
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), Some(OperandSource::LiveReg), None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert_eq!(sl.dead_producers, vec![1]);
        // at index 1: producer 0 awaits its read and producer 1 is dead on
        // arrival; at index 2 only the root is live
        assert_eq!(sl.peak_sfile, 1);
    }

    #[test]
    fn chain_has_unit_peak_and_no_dead() {
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), None, None],
            },
            OperandPlan {
                sources: [sfile(1), None, None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert!(sl.dead_producers.is_empty());
        assert_eq!(sl.peak_sfile, 1, "a pure chain needs one slot at a time");
    }

    #[test]
    fn wide_tree_peaks_at_fanin() {
        // two leaves joined by the root
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), sfile(1), None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert!(sl.dead_producers.is_empty());
        assert_eq!(sl.peak_sfile, 2);
    }
}
