//! Shared helpers for kernel construction: deterministic data generation
//! and common loop-emission idioms.

use amnesiac_isa::{AluOp, BranchCond, Label, ProgramBuilder, Reg};
use amnesiac_rng::Rng;

/// Deterministic RNG for workload data (fixed seed per kernel).
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// Generates `n` random u64 values below `bound`.
pub fn random_indices(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.below(bound)).collect()
}

/// Generates a random permutation of `0..n` (for pointer-chasing rings).
pub fn random_permutation(seed: u64, n: usize) -> Vec<u64> {
    let mut r = rng(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    r.shuffle(&mut v);
    v
}

/// Emits the loop header for a hand-managed loop; returns `(top, done)`
/// labels with `top` already bound. The caller must emit the back-jump and
/// bind `done`.
pub fn loop_header(b: &mut ProgramBuilder, counter: Reg, limit: Reg, n: u64) -> (Label, Label) {
    b.li(counter, 0);
    b.li(limit, n);
    let top = b.label();
    let done = b.label();
    b.bind(top).expect("fresh label");
    b.branch(BranchCond::Geu, counter, limit, done);
    (top, done)
}

/// Closes a loop opened by [`loop_header`].
pub fn loop_footer(b: &mut ProgramBuilder, counter: Reg, top: Label, done: Label) {
    b.alui(AluOp::Add, counter, counter, 1);
    b.jump(top);
    b.bind(done).expect("fresh label");
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_sim::{ClassicCore, CoreConfig};

    #[test]
    fn permutation_is_a_bijection() {
        let p = random_permutation(1, 100);
        let mut seen = [false; 100];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn indices_respect_bound_and_are_deterministic() {
        let a = random_indices(7, 50, 10);
        let b = random_indices(7, 50, 10);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
    }

    #[test]
    fn loop_header_and_footer_iterate_n_times() {
        let mut b = ProgramBuilder::new("t");
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.li(Reg(10), 0);
        let (top, done) = loop_header(&mut b, Reg(1), Reg(2), 5);
        b.alui(AluOp::Add, Reg(10), Reg(10), 2);
        loop_footer(&mut b, Reg(1), top, done);
        b.li(Reg(3), out);
        b.store(Reg(10), Reg(3), 0);
        b.halt();
        let p = b.finish().unwrap();
        let r = ClassicCore::new(CoreConfig::paper()).run(&p).unwrap();
        assert_eq!(r.final_memory[&out], 10);
    }
}
