//! Forward must-reach dataflow for `REC` checkpoints.
//!
//! Computes, for every reachable program point of the main code, the set of
//! `Hist` keys that have *definitely* been checkpointed by a `REC` on every
//! path from the entry (intersection meet, ⊤-initialised, to fixpoint). The
//! verifier uses it to decide whether an `RCMP`'s `Hist`-sourced operands are
//! covered on all static paths, for every key: with a single `REC` site the
//! result is exactly dominance of that site over the `RCMP`, with several
//! it is the general must-reach answer. It runs over the CFG of the
//! program's `amnesiac_absint::Analysis` ([`crate::cfg`]).

use std::collections::BTreeMap;

use amnesiac_isa::{DecodedInst, DecodedOp};

use crate::cfg::Cfg;

/// Result of the must-reach analysis over a program's main code.
///
/// Key sets are kept as dense bitsets over the distinct reachable `REC`
/// keys (bit *i* of a row ↔ `keys[i]`): the compile gate re-runs this
/// analysis once per validation round, and `BTreeSet` unions/intersections
/// allocated per block per fixpoint iteration dominated its cost.
#[derive(Debug, Clone)]
pub struct RecCoverage {
    /// Distinct keys with a reachable `REC` site, ascending (the bitset
    /// index space; keys never checkpointed can never be covered).
    keys: Vec<u16>,
    /// Words per bitset row (`keys.len()` bits, rounded up).
    words: usize,
    /// Per-block key bitsets at block entry; `None` means the block was
    /// never reached by the analysis (unreachable from the program entry).
    entry_sets: Vec<Option<Vec<u64>>>,
    /// Reachable `REC` sites per key, in ascending pc order.
    rec_sites: BTreeMap<u16, Vec<usize>>,
}

impl RecCoverage {
    /// Runs the analysis. `decoded` is the full predecoded stream; only
    /// `[0, code_len)` is examined.
    pub fn analyze(decoded: &[DecodedInst], code_len: usize, cfg: &Cfg) -> RecCoverage {
        let code_len = code_len.min(decoded.len());
        let n = cfg.len();
        let mut entry_sets: Vec<Option<Vec<u64>>> = vec![None; n];
        let mut rec_sites: BTreeMap<u16, Vec<usize>> = BTreeMap::new();

        for (pc, inst) in decoded[..code_len].iter().enumerate() {
            if let DecodedOp::Rec { key } = inst.op {
                if cfg.is_reachable_pc(pc) {
                    rec_sites.entry(key).or_default().push(pc);
                }
            }
        }

        // Bitset index space: every key a reachable block can generate is a
        // reachable REC's key, so `rec_sites` already enumerates them all.
        let keys: Vec<u16> = rec_sites.keys().copied().collect();
        let words = keys.len().div_ceil(64).max(1);
        let bit_of = |key: u16| keys.binary_search(&key).ok();

        let Some(entry) = cfg.entry_block else {
            return RecCoverage {
                keys,
                words,
                entry_sets,
                rec_sites,
            };
        };

        // gen[b]: keys checkpointed anywhere in block b (REC never kills).
        // Keys of unreachable RECs are absent from the index space; their
        // blocks' gen rows are never consulted (entry stays `None`).
        let mut gen: Vec<u64> = vec![0; n * words];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            for d in &decoded[blk.start..blk.end] {
                if let DecodedOp::Rec { key } = d.op {
                    if let Some(i) = bit_of(key) {
                        gen[b * words + i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }

        // in[entry] = ∅; in[b] = ∩ preds (in[p] ∪ gen[p]). Unvisited blocks
        // stay ⊤ (`None`) and drop out of the meet. Iterate to fixpoint
        // into one scratch row (sets only shrink, so this terminates); a
        // fresh row is allocated only when a block's set actually changes.
        entry_sets[entry] = Some(vec![0; words]);
        let mut meet = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == entry {
                    continue;
                }
                let mut seen_pred = false;
                for &p in &cfg.blocks[b].preds {
                    let Some(in_p) = &entry_sets[p] else {
                        continue;
                    };
                    let gen_p = &gen[p * words..(p + 1) * words];
                    if seen_pred {
                        for (m, (i, g)) in meet.iter_mut().zip(in_p.iter().zip(gen_p)) {
                            *m &= i | g;
                        }
                    } else {
                        for (m, (i, g)) in meet.iter_mut().zip(in_p.iter().zip(gen_p)) {
                            *m = i | g;
                        }
                        seen_pred = true;
                    }
                }
                if seen_pred && entry_sets[b].as_deref() != Some(&meet) {
                    entry_sets[b] = Some(meet.clone());
                    changed = true;
                }
            }
        }

        RecCoverage {
            keys,
            words,
            entry_sets,
            rec_sites,
        }
    }

    /// Reachable `REC` pcs checkpointing `key`, in ascending order.
    pub fn sites(&self, key: u16) -> &[usize] {
        self.rec_sites
            .get(&key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates over `(key, reachable sites)` pairs in key order.
    pub fn site_map(&self) -> impl Iterator<Item = (u16, &[usize])> {
        self.rec_sites.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Returns `true` if `key` has definitely been checkpointed on every
    /// path from the entry to the instruction at `pc` (exclusive of `pc`
    /// itself). `false` when `pc` is unreachable or out of range.
    pub fn covered_at(&self, decoded: &[DecodedInst], cfg: &Cfg, pc: usize, key: u16) -> bool {
        let Some(b) = cfg.block_of_pc(pc) else {
            return false;
        };
        let Some(at_entry) = &self.entry_sets[b] else {
            return false;
        };
        if let Ok(i) = self.keys.binary_search(&key) {
            debug_assert_eq!(self.words, at_entry.len());
            if at_entry[i / 64] & (1 << (i % 64)) != 0 {
                return true;
            }
        }
        let start = cfg.blocks[b].start;
        decoded[start..pc]
            .iter()
            .any(|d| matches!(d.op, DecodedOp::Rec { key: k } if k == key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, BranchCond, Instruction, Program, Reg};

    fn rec(key: u16) -> Instruction {
        Instruction::Rec {
            key,
            srcs: [Some(Reg(1)), None, None],
        }
    }

    fn program(insts: Vec<Instruction>) -> Program {
        let mut p = Program::new("df-test");
        p.code_len = insts.len();
        p.instructions = insts;
        p
    }

    fn branch(target: usize) -> Instruction {
        Instruction::Branch {
            cond: BranchCond::Eq,
            lhs: Reg(0),
            rhs: Reg(0),
            target,
        }
    }

    #[test]
    fn straight_line_coverage_is_positional() {
        let p = program(vec![rec(7), Instruction::Halt]);
        let d = predecode(&p);
        let cfg = Cfg::build(&d, p.code_len, 0);
        let cov = RecCoverage::analyze(&d, p.code_len, &cfg);
        assert!(!cov.covered_at(&d, &cfg, 0, 7), "not before the REC");
        assert!(cov.covered_at(&d, &cfg, 1, 7), "after the REC");
        assert_eq!(cov.sites(7), &[0]);
    }

    #[test]
    fn one_armed_rec_does_not_cover_the_join() {
        // 0: branch 3 | 1: rec 5, 2: branch 3 | 3: halt
        let p = program(vec![branch(3), rec(5), branch(3), Instruction::Halt]);
        let d = predecode(&p);
        let cfg = Cfg::build(&d, p.code_len, 0);
        let cov = RecCoverage::analyze(&d, p.code_len, &cfg);
        assert!(
            !cov.covered_at(&d, &cfg, 3, 5),
            "a path skipping the REC reaches the join"
        );
    }

    #[test]
    fn both_arms_cover_the_join() {
        // 0: branch 3 | 1: rec 5, 2: branch 4 | 3: rec 5 | 4: halt
        let p = program(vec![
            branch(3),
            rec(5),
            branch(4),
            rec(5),
            Instruction::Halt,
        ]);
        let d = predecode(&p);
        let cfg = Cfg::build(&d, p.code_len, 0);
        let cov = RecCoverage::analyze(&d, p.code_len, &cfg);
        assert!(cov.covered_at(&d, &cfg, 4, 5), "both arms checkpoint");
        assert_eq!(cov.sites(5), &[1, 3], "two distinct sites");
    }

    #[test]
    fn loop_carried_rec_covers_after_first_iteration_only() {
        // 0: branch 4 (zero-trip exit) | 1: rec 9, 2: branch 4, 3: branch 1 | 4: halt
        let p = program(vec![
            branch(4),
            rec(9),
            branch(4),
            branch(1),
            Instruction::Halt,
        ]);
        let d = predecode(&p);
        let cfg = Cfg::build(&d, p.code_len, 0);
        let cov = RecCoverage::analyze(&d, p.code_len, &cfg);
        assert!(
            !cov.covered_at(&d, &cfg, 4, 9),
            "the zero-trip path reaches the exit without checkpointing"
        );
        assert!(
            cov.covered_at(&d, &cfg, 2, 9),
            "inside the body, after the REC"
        );
    }

    #[test]
    fn unreachable_rec_is_ignored() {
        // 0: jump 2 | 1: rec 3 (dead) | 2: halt
        let p = program(vec![
            Instruction::Jump { target: 2 },
            rec(3),
            Instruction::Halt,
        ]);
        let d = predecode(&p);
        let cfg = Cfg::build(&d, p.code_len, 0);
        let cov = RecCoverage::analyze(&d, p.code_len, &cfg);
        assert!(cov.sites(3).is_empty(), "dead RECs contribute no sites");
        assert!(!cov.covered_at(&d, &cfg, 2, 3));
    }
}
