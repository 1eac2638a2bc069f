//! Randomized end-to-end tests: generated programs must stay bit-exact
//! under amnesic execution, for every policy, slice set, and (tiny)
//! structure sizing. This exercises the profiler's tree merging, the
//! planner's freshness constraints, the binary rewriter, and the runtime
//! fallback paths far beyond the hand-written kernels. Cases are drawn
//! from the deterministic in-repo RNG so every run sees the same corpus.

use amnesiac::compiler::{compile, CompileOptions, SliceSetPolicy};
use amnesiac::core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac::isa::{AluOp, BranchCond, FpOp, Instruction, Program, ProgramBuilder, Reg};
use amnesiac::profile::profile_program;
use amnesiac::sim::{ClassicCore, CoreConfig};
use amnesiac_rng::Rng;

/// One producer operation in a generated fill kernel.
#[derive(Debug, Clone, Copy)]
enum ProducerOp {
    MulParam(u8),
    AddParam(u8),
    XorIndex,
    ShrImm(u8),
    FmaParams(u8, u8),
}

/// How the generated kernel reads its array back.
#[derive(Debug, Clone, Copy)]
enum Consume {
    Sequential,
    Strided(u64),
    /// Read each element `i` at index `perm(i) = (i*multiplier) % n`
    /// (odd multiplier ⇒ a permutation of a power-of-two range).
    Permuted(u64),
}

#[derive(Debug, Clone)]
struct KernelSpec {
    n_log2: u32,
    ops: Vec<ProducerOp>,
    params_from_memory: bool,
    clobber_params: bool,
    consume: Consume,
    sweeps: u64,
}

fn random_spec(r: &mut Rng) -> KernelSpec {
    let random_op = |r: &mut Rng| match r.below(5) {
        0 => ProducerOp::MulParam(r.below(4) as u8),
        1 => ProducerOp::AddParam(r.below(4) as u8),
        2 => ProducerOp::XorIndex,
        3 => ProducerOp::ShrImm(r.range_u64(1, 6) as u8),
        _ => ProducerOp::FmaParams(r.below(4) as u8, r.below(4) as u8),
    };
    let consume = match r.below(3) {
        0 => Consume::Sequential,
        1 => Consume::Strided(r.range_u64(2, 6)),
        _ => Consume::Permuted(*r.choose(&[3u64, 5, 7])),
    };
    KernelSpec {
        n_log2: r.range_u64(3, 7) as u32,
        ops: (0..r.range_usize(1, 6)).map(|_| random_op(r)).collect(),
        params_from_memory: r.bool(),
        clobber_params: r.bool(),
        consume,
        sweeps: r.range_u64(1, 3),
    }
}

/// Builds a fill-then-consume kernel from a spec. The producer computes an
/// integer (or fp, via FMA) chain over the loop index and four parameters;
/// the consumer re-reads in the chosen order keeping the index in the
/// producer's register, like real amnesic-friendly code.
fn build(spec: &KernelSpec) -> Program {
    let n = 1u64 << spec.n_log2;
    let mut b = ProgramBuilder::new("generated");
    let arr = b.alloc_zeroed(n);
    let params = b.alloc_data(&[3, 5, 9, 2654435761]);
    b.mark_read_only(params, 4);
    let out = b.alloc_zeroed(1);
    b.mark_output(out, 1);

    let r_arr = Reg(1);
    let r_i = Reg(2);
    let r_lim = Reg(3);
    let r_addr = Reg(4);
    let r_acc = Reg(5);
    let r_val = Reg(6);
    let param_reg = |k: u8| Reg(10 + k);

    b.li(r_arr, arr);
    if spec.params_from_memory {
        b.li(r_addr, params);
        for k in 0..4u8 {
            b.load(param_reg(k), r_addr, k as i64);
        }
    } else {
        for (k, v) in [3u64, 5, 9, 2654435761].iter().enumerate() {
            b.li(param_reg(k as u8), *v);
        }
    }

    // fill loop
    b.li(r_i, 0);
    b.li(r_lim, n);
    let top = b.label();
    let done = b.label();
    b.bind(top).unwrap();
    b.branch(BranchCond::Geu, r_i, r_lim, done);
    b.alui(AluOp::Add, r_val, r_i, 1);
    for op in &spec.ops {
        match *op {
            ProducerOp::MulParam(k) => {
                b.alu(AluOp::Mul, r_val, r_val, param_reg(k));
            }
            ProducerOp::AddParam(k) => {
                b.alu(AluOp::Add, r_val, r_val, param_reg(k));
            }
            ProducerOp::XorIndex => {
                b.alu(AluOp::Xor, r_val, r_val, r_i);
            }
            ProducerOp::ShrImm(s) => {
                b.alui(AluOp::Shr, r_val, r_val, s as u64);
            }
            ProducerOp::FmaParams(x, y) => {
                // keep it integral: (val + px) * py via two ALU ops
                b.alu(AluOp::Add, r_val, r_val, param_reg(x));
                b.alu(AluOp::Mul, r_val, r_val, param_reg(y));
            }
        }
    }
    b.alu(AluOp::Add, r_addr, r_arr, r_i);
    b.store(r_val, r_addr, 0);
    b.alui(AluOp::Add, r_i, r_i, 1);
    b.jump(top);
    b.bind(done).unwrap();

    if spec.clobber_params {
        for k in 0..4u8 {
            b.li(param_reg(k), 0);
        }
    }

    // consume sweeps
    b.li(r_acc, 0);
    let r_s = Reg(7);
    let r_slim = Reg(8);
    let r_k = Reg(9);
    b.li(r_s, 0);
    b.li(r_slim, spec.sweeps);
    let stop = b.label();
    let sdone = b.label();
    b.bind(stop).unwrap();
    b.branch(BranchCond::Geu, r_s, r_slim, sdone);
    {
        b.li(r_k, 0);
        let ctop = b.label();
        let cdone = b.label();
        b.bind(ctop).unwrap();
        b.branch(BranchCond::Geu, r_k, r_lim, cdone);
        match spec.consume {
            Consume::Sequential | Consume::Strided(_) => {
                // index register doubles as the producer's register
                b.alu(AluOp::Add, r_addr, r_arr, r_k);
                // keep r_i equal to the consumed index for liveness
                b.alui(AluOp::Add, r_i, r_k, 0);
            }
            Consume::Permuted(m) => {
                b.alui(AluOp::Mul, r_i, r_k, m);
                b.alui(AluOp::And, r_i, r_i, n - 1);
                b.alu(AluOp::Add, r_addr, r_arr, r_i);
            }
        }
        b.load(r_val, r_addr, 0); // the swappable load
        b.alu(AluOp::Add, r_acc, r_acc, r_val);
        let step = match spec.consume {
            Consume::Strided(s) => s,
            _ => 1,
        };
        b.alui(AluOp::Add, r_k, r_k, step);
        b.jump(ctop);
        b.bind(cdone).unwrap();
    }
    b.alui(AluOp::Add, r_s, r_s, 1);
    b.jump(stop);
    b.bind(sdone).unwrap();

    b.li(r_addr, out);
    b.store(r_acc, r_addr, 0);
    b.halt();
    b.finish().expect("generated program builds")
}

fn assert_equivalent(program: &Program) {
    let config = CoreConfig::paper();
    let classic = ClassicCore::new(config.clone())
        .run(program)
        .expect("classic");
    let (profile, _) = profile_program(program, &config).expect("profile");
    for slice_set in [SliceSetPolicy::Probabilistic, SliceSetPolicy::Oracle] {
        let options = CompileOptions {
            slice_set,
            ..CompileOptions::default()
        };
        let (binary, _) = compile(program, &profile, &options).expect("compile");
        for policy in Policy::ALL {
            let result = AmnesicCore::new(AmnesicConfig::paper(policy))
                .run(&binary)
                .expect("amnesic run");
            assert_eq!(
                result.run.final_memory, classic.final_memory,
                "{policy} diverged on {slice_set:?}"
            );
        }
        // tiny structures must degrade to loads, never to wrong values
        let starved = AmnesicConfig {
            sfile_capacity: 2,
            hist_capacity: 1,
            ibuff_capacity: 2,
            ..AmnesicConfig::paper(Policy::Compiler)
        };
        let result = AmnesicCore::new(starved).run(&binary).expect("starved run");
        assert_eq!(
            result.run.final_memory, classic.final_memory,
            "starved diverged"
        );
    }
}

/// The headline property: generated fill/consume kernels stay bit-exact
/// under every policy, slice set, and starved structures.
#[test]
fn generated_kernels_are_policy_equivalent() {
    let mut r = Rng::seed_from_u64(0x9E01);
    for _ in 0..24 {
        let spec = random_spec(&mut r);
        let program = build(&spec);
        assert_equivalent(&program);
    }
}

/// The binary image round-trips every generated program exactly —
/// including the ANNOTATED binary with its slices and operand plans.
#[test]
fn binary_image_roundtrip_is_identity() {
    let mut r = Rng::seed_from_u64(0x9E02);
    for _ in 0..24 {
        let spec = random_spec(&mut r);
        let program = build(&spec);
        let bytes = amnesiac::isa::encode_program(&program);
        let decoded = amnesiac::isa::decode_program(&bytes).expect("decodes");
        assert_eq!(&decoded, &program);
        // the annotated binary (slices, plans, leaves) round-trips too
        let config = CoreConfig::paper();
        let (profile, _) = profile_program(&program, &config).expect("profiles");
        let (annotated, _) =
            compile(&program, &profile, &CompileOptions::default()).expect("compiles");
        let bytes = amnesiac::isa::encode_program(&annotated);
        assert_eq!(amnesiac::isa::encoded_len(&annotated), bytes.len());
        let decoded = amnesiac::isa::decode_program(&bytes).expect("decodes annotated");
        assert_eq!(&decoded, &annotated);
        // and the decoded annotated binary runs identically
        let a = AmnesicCore::new(AmnesicConfig::paper(Policy::Compiler))
            .run(&annotated)
            .expect("runs");
        let b = AmnesicCore::new(AmnesicConfig::paper(Policy::Compiler))
            .run(&decoded)
            .expect("runs");
        assert_eq!(a.run.final_memory, b.run.final_memory);
    }
}

/// The assembler round-trips every generated program exactly.
#[test]
fn asm_roundtrip_is_identity() {
    let mut r = Rng::seed_from_u64(0x9E03);
    for _ in 0..24 {
        let spec = random_spec(&mut r);
        let program = build(&spec);
        let text = amnesiac::isa::to_asm(&program);
        let parsed = amnesiac::isa::parse_asm(&text).expect("parses");
        assert_eq!(&parsed.instructions, &program.instructions);
        assert_eq!(parsed.entry, program.entry);
        assert_eq!(&parsed.output, &program.output);
        assert_eq!(&parsed.read_only, &program.read_only);
        let a: Vec<_> = parsed.data.iter().collect();
        let b: Vec<_> = program.data.iter().collect();
        assert_eq!(a, b);
        // and the parsed program runs identically
        let config = CoreConfig::paper();
        let r1 = ClassicCore::new(config.clone())
            .run(&program)
            .expect("runs");
        let r2 = ClassicCore::new(config).run(&parsed).expect("runs");
        assert_eq!(r1.final_memory, r2.final_memory);
    }
}

/// Fully random straight-line programs: mostly unswappable sites, but the
/// whole pipeline must stay robust and exact.
fn straight_line(seed: &[u8]) -> Program {
    let mut b = ProgramBuilder::new("straightline");
    let scratch = b.alloc_zeroed(16);
    let out = b.alloc_zeroed(8);
    b.mark_output(out, 8);
    b.li(Reg(1), scratch);
    b.li(Reg(2), out);
    for r in 3..10u8 {
        b.li(Reg(r), r as u64 * 1_000_003);
    }
    for (i, &byte) in seed.iter().enumerate() {
        let dst = Reg(3 + (byte % 7));
        let lhs = Reg(3 + ((byte >> 3) % 7));
        let rhs = Reg(3 + ((byte >> 5) % 7));
        match byte % 6 {
            0 => {
                b.alu(AluOp::Add, dst, lhs, rhs);
            }
            1 => {
                b.alu(AluOp::Mul, dst, lhs, rhs);
            }
            2 => {
                b.alu(AluOp::Xor, dst, lhs, rhs);
            }
            3 => {
                b.store(lhs, Reg(1), (byte % 16) as i64);
            }
            4 => {
                b.load(dst, Reg(1), (byte % 16) as i64);
            }
            5 => {
                b.fpu(FpOp::Add, dst, lhs, rhs);
            }
            _ => unreachable!(),
        }
        if i % 5 == 4 {
            b.store(dst, Reg(2), (i % 8) as i64);
        }
    }
    for r in 0..7u8 {
        b.store(Reg(3 + r), Reg(2), (r % 8) as i64);
    }
    b.halt();
    b.finish().expect("straight-line program builds")
}

fn random_bytes(r: &mut Rng, min_len: usize, max_len: usize) -> Vec<u8> {
    (0..r.range_usize(min_len, max_len))
        .map(|_| r.below(256) as u8)
        .collect()
}

#[test]
fn straight_line_programs_are_policy_equivalent() {
    let mut r = Rng::seed_from_u64(0x9E04);
    for _ in 0..32 {
        let seed = random_bytes(&mut r, 10, 120);
        let program = straight_line(&seed);
        // straight-line code may contain no loops but plenty of aliasing
        // stores/loads; the pipeline must never mis-recompute
        assert_equivalent(&program);
    }
}

/// Validation invariant: every slice that survives compilation replays
/// exactly on the profiling input.
#[test]
fn surviving_slices_replay_exactly() {
    let mut r = Rng::seed_from_u64(0x9E05);
    for _ in 0..32 {
        let seed = random_bytes(&mut r, 10, 80);
        let program = straight_line(&seed);
        let config = CoreConfig::paper();
        let (profile, _) = profile_program(&program, &config).expect("profile");
        let (binary, _) = compile(&program, &profile, &CompileOptions::default()).expect("compile");
        if binary.is_annotated() {
            let outcome = amnesiac::compiler::replay_validate(&binary, 10_000_000).expect("replay");
            assert!(outcome.failing_slices().is_empty());
        }
        // and the annotated binary still validates structurally
        amnesiac::isa::validate::validate(&binary).expect("structurally valid");
        let _ = Instruction::Halt; // keep the import exercised
    }
}
