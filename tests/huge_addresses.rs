//! Word addresses are raw 64-bit register values, so their byte addresses
//! can overflow `u64`. Every interpreter must then wrap — what a release
//! build always did — rather than panic a debug build: in the load/store
//! cost path, the `RCMP` residency probe, and the next-line prefetcher.

use amnesiac::compiler::{annotate, replay_validate, SliceInstSpec, SliceSpec};
use amnesiac::core::{AmnesicConfig, AmnesicCore, Policy};
use amnesiac::isa::{AluOp, Instruction, MemRange, OperandSource, Program, ProgramBuilder, Reg};
use amnesiac::mem::HierarchyConfig;
use amnesiac::sim::{ClassicCore, CoreConfig};

/// Word addresses whose byte address overflows: `HUGE × 8` wraps to 0, and
/// `u64::MAX × 8` wraps to the last word, one line short of the top (so the
/// prefetcher's next line wraps too).
const ADDRESSES: [u64; 2] = [0x4000_0000_0000_0000, u64::MAX];

/// The paper machine, without and with the next-line prefetcher.
fn machines() -> [CoreConfig; 2] {
    [
        CoreConfig::paper(),
        CoreConfig {
            hierarchy: HierarchyConfig::paper_with_prefetch(),
            ..CoreConfig::paper()
        },
    ]
}

/// `mem[a + 1] = mem[a] + 1` at word address `a`.
fn load_store(addr: u64) -> Program {
    let mut b = ProgramBuilder::new("huge-load-store");
    b.li(Reg(1), addr);
    b.load(Reg(2), Reg(1), 0);
    b.alui(AluOp::Add, Reg(2), Reg(2), 1);
    b.store(Reg(2), Reg(1), 1);
    b.load(Reg(3), Reg(1), 1);
    b.halt();
    let mut p = b.finish().expect("valid program");
    p.output.push(MemRange::new(addr.wrapping_add(1), 1));
    p
}

/// `mem[a] = 20 + 3`, reloaded through an `RCMP` whose slice recomputes it
/// from the live register.
fn rcmp(addr: u64) -> (Program, Program) {
    let mut b = ProgramBuilder::new("huge-rcmp");
    b.li(Reg(1), addr);
    b.li(Reg(2), 20);
    let add_pc = b.alui(AluOp::Add, Reg(3), Reg(2), 3);
    b.store(Reg(3), Reg(1), 0);
    let load_pc = b.load(Reg(4), Reg(1), 0);
    b.store(Reg(4), Reg(1), 1);
    b.halt();
    let mut p = b.finish().expect("valid program");
    p.output.push(MemRange::new(addr.wrapping_add(1), 1));
    let spec = SliceSpec {
        load_pc,
        insts: vec![SliceInstSpec {
            inst: Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(3),
                src: Reg(2),
                imm: 3,
            },
            origin_pc: add_pc,
            sources: [Some(OperandSource::LiveReg), None, None],
        }],
        height: 0,
        est_recompute_nj: 1.0,
        est_load_nj: 20.0,
    };
    let annotated = annotate(&p, &[spec]).expect("annotates");
    (p, annotated)
}

#[test]
fn loads_and_stores_at_overflowing_addresses_wrap() {
    for addr in ADDRESSES {
        let p = load_store(addr);
        let out = addr.wrapping_add(1);
        for machine in machines() {
            let classic = ClassicCore::new(machine.clone())
                .run(&p)
                .expect("classic run");
            assert_eq!(classic.final_memory[&out], 1, "{addr:#x}: classic");
            let amnesic = AmnesicCore::new(AmnesicConfig {
                core: machine,
                ..AmnesicConfig::paper(Policy::Compiler)
            })
            .run(&p)
            .expect("amnesic run");
            assert_eq!(amnesic.run.final_memory, classic.final_memory, "{addr:#x}");
            assert_eq!(amnesic.run.account, classic.account, "{addr:#x}");
        }
        let replay = replay_validate(&p, 1_000).expect("replay");
        assert_eq!(replay.output[&out], 1, "{addr:#x}: replay");
    }
}

#[test]
fn rcmp_at_an_overflowing_address_wraps() {
    for addr in ADDRESSES {
        let (plain, annotated) = rcmp(addr);
        let replay = replay_validate(&annotated, 1_000).expect("replay");
        assert!(replay.failing_slices().is_empty(), "{addr:#x}: slice exact");
        for machine in machines() {
            let classic = ClassicCore::new(machine.clone())
                .run(&plain)
                .expect("classic run");
            assert_eq!(classic.final_memory[&addr.wrapping_add(1)], 23);
            for policy in Policy::ALL_EXTENDED {
                let amnesic = AmnesicCore::new(AmnesicConfig {
                    core: machine.clone(),
                    ..AmnesicConfig::paper(policy)
                })
                .run(&annotated)
                .expect("amnesic run");
                assert_eq!(
                    amnesic.run.final_memory, classic.final_memory,
                    "{addr:#x}: {policy}"
                );
                assert_eq!(amnesic.stats.rcmp_total(), 1, "{addr:#x}: {policy}");
            }
        }
    }
}
