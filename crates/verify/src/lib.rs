#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Static slice well-formedness verifier for annotated amnesiac binaries.
//!
//! The amnesic compiler's contract (§3.2 of the paper) is that every
//! recomputation slice re-produces the value its `RCMP` would have loaded:
//! slice bodies are pure compute terminated by the right `RTN`, every
//! non-recomputable leaf operand was checkpointed by a `REC` before the
//! `RCMP` can fire, and main code never wanders into the appended slice
//! region. The dynamic replay validator (`amnesiac-compiler`) checks this
//! only on the profiled inputs; this crate proves the invariants for *all*
//! inputs with a CFG-plus-dataflow static analysis:
//!
//! * basic blocks, reachability and dominators over the main code
//!   ([`mod@cfg`]),
//! * a forward must-reach analysis of `REC` checkpoints ([`dataflow`]),
//! * structural checks of every [`amnesiac_isa::SliceMeta`] against the
//!   instruction stream.
//!
//! [`verify`] returns a [`VerifyReport`] of typed [`Diagnostic`]s; a report
//! with no [`Severity::Error`] entries is *clean*. The verifier never
//! panics on malformed input — adversarially mutated binaries are exactly
//! its job — so every index into the program is bounds-checked.

pub use amnesiac_cfg as cfg;
pub mod dataflow;

use std::collections::BTreeSet;
use std::fmt;

use amnesiac_isa::{predecode, DecodedInst, Instruction, Program};
use amnesiac_telemetry::{Json, ToJson};

use cfg::Cfg;
use dataflow::RecCoverage;

/// Default `SFile` capacity (entries) used for the register-pressure
/// invariant: the paper's Table 3 provisions 256 entries
/// (`max#slice_insts × max#rename`), matching the runtime configuration.
pub const DEFAULT_SFILE_CAPACITY: usize = 256;

/// Default `Hist` capacity (keys) used by the key-range invariant: the
/// checkpoint table is direct-mapped on the leaf key, so a key at or past
/// this bound can never be recorded or found at runtime.
pub const DEFAULT_HIST_CAPACITY: usize = 4096;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The binary is statically suspicious but still executes correctly
    /// (the runtime degrades gracefully, e.g. a `Hist` miss forces the
    /// fallback load).
    Warn,
    /// The binary violates a slice invariant: amnesic execution may compute
    /// a wrong value, leak a side effect, or trap.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The invariant a diagnostic reports on (§3.2 slice legality and §3.4
/// storage bounds). Each kind carries a fixed [`Severity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticKind {
    /// A slice body instruction is not pure compute (store, load, branch,
    /// jump, or another amnesic op inside the body).
    SliceSideEffect,
    /// A slice body does not end in its own `Rtn { slice }`.
    SliceMissingRtn,
    /// A slice body's `[entry, entry + len)` range overlaps the main code
    /// or runs past the end of the instruction stream.
    SliceOutOfBounds,
    /// An `RCMP` and its slice metadata disagree: unknown slice id, or the
    /// slice's `rcmp_pc` does not point back at this `RCMP`.
    RcmpBadTarget,
    /// A slice's operand plans are inconsistent with its body: wrong plan
    /// count, operand present/absent mismatch, an `SFile` producer at or
    /// after its consumer, or a root register that is not the last compute
    /// destination.
    OperandPlanMismatch,
    /// A slice's leaf table disagrees with its plans: a leaf instruction
    /// missing from the table, a non-leaf listed, an out-of-range index, or
    /// a wrong `needs_hist` flag.
    LeafNotCovered,
    /// A `Hist`-sourced operand has no reachable `REC` checkpointing its
    /// key anywhere in the main code: the slice can never fire from `Hist`.
    UncheckpointedHist,
    /// `REC`s for the key exist but do not cover *all* static paths from
    /// the entry to the `RCMP` (the single-site case is exactly "the `REC`
    /// does not dominate the `RCMP`"). On the uncovered paths the runtime
    /// misses in `Hist` and falls back to the load, so this degrades
    /// energy, not correctness.
    RecNotDominating,
    /// A `REC` checkpoints a key that no slice reads — dead `Hist` traffic.
    RecKeyOrphan,
    /// A slice body holds more compute instructions than the `SFile` can
    /// rename (Table 3): the runtime will always force the fallback load.
    SfilePressure,
    /// Main code can enter the appended slice region: a fallthrough at
    /// `code_len`, a branch/jump target inside it, or an entry pc beyond it.
    MainCodeEntersSliceRegion,
    /// A slice whose owning `RCMP` is unreachable from the program entry —
    /// the body is dead weight in the binary.
    UnreachableSlice,
    /// Slice body producers whose value is never consumed — not by any
    /// later `SFile` operand and not as the root. The recomputation burns
    /// energy on values it throws away.
    DeadSliceCompute,
    /// The whole recomputation folds to one compile-time constant: the
    /// slice spends a multi-instruction traversal on what a single
    /// immediate would provide.
    ConstantFoldableSlice,
    /// The abstract interpreter proves the recomputed value lies outside
    /// every value the loaded address can hold: the slice diverges at every
    /// firing. The `RCMP` still retires the architecturally loaded value,
    /// so this degrades energy (wasted traversals), not correctness — and
    /// dynamic replay will drop the slice.
    RcmpDivergent,
    /// A `Hist` key at or past the checkpoint table's capacity: the runtime
    /// can never record or find it, so every firing misses and falls back.
    HistKeyOutOfRange,
    /// Liveness proof that the body needs more concurrently live `SFile`
    /// slots than the file has even with perfect renaming — a strictly
    /// stronger fact than [`DiagnosticKind::SfilePressure`]'s instruction
    /// count.
    SfileOverflow,
}

impl DiagnosticKind {
    /// The fixed severity of this kind.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::SliceSideEffect
            | DiagnosticKind::SliceMissingRtn
            | DiagnosticKind::SliceOutOfBounds
            | DiagnosticKind::RcmpBadTarget
            | DiagnosticKind::OperandPlanMismatch
            | DiagnosticKind::LeafNotCovered
            | DiagnosticKind::UncheckpointedHist
            | DiagnosticKind::MainCodeEntersSliceRegion
            | DiagnosticKind::HistKeyOutOfRange
            | DiagnosticKind::SfileOverflow => Severity::Error,
            DiagnosticKind::RecNotDominating
            | DiagnosticKind::RecKeyOrphan
            | DiagnosticKind::SfilePressure
            | DiagnosticKind::UnreachableSlice
            | DiagnosticKind::DeadSliceCompute
            | DiagnosticKind::ConstantFoldableSlice
            | DiagnosticKind::RcmpDivergent => Severity::Warn,
        }
    }

    /// Stable kebab-case name, used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosticKind::SliceSideEffect => "slice-side-effect",
            DiagnosticKind::SliceMissingRtn => "slice-missing-rtn",
            DiagnosticKind::SliceOutOfBounds => "slice-out-of-bounds",
            DiagnosticKind::RcmpBadTarget => "rcmp-bad-target",
            DiagnosticKind::OperandPlanMismatch => "operand-plan-mismatch",
            DiagnosticKind::LeafNotCovered => "leaf-not-covered",
            DiagnosticKind::UncheckpointedHist => "uncheckpointed-hist",
            DiagnosticKind::RecNotDominating => "rec-not-dominating",
            DiagnosticKind::RecKeyOrphan => "rec-key-orphan",
            DiagnosticKind::SfilePressure => "sfile-pressure",
            DiagnosticKind::MainCodeEntersSliceRegion => "main-code-enters-slice-region",
            DiagnosticKind::UnreachableSlice => "unreachable-slice",
            DiagnosticKind::DeadSliceCompute => "dead-slice-compute",
            DiagnosticKind::ConstantFoldableSlice => "constant-foldable-slice",
            DiagnosticKind::RcmpDivergent => "rcmp-divergent",
            DiagnosticKind::HistKeyOutOfRange => "hist-key-out-of-range",
            DiagnosticKind::SfileOverflow => "sfile-overflow",
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verifier finding, anchored to a pc and/or slice where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated invariant.
    pub kind: DiagnosticKind,
    /// `kind.severity()`, denormalised for consumers.
    pub severity: Severity,
    /// Instruction index the finding anchors to, if any.
    pub pc: Option<usize>,
    /// Slice id the finding concerns, if any.
    pub slice: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
    /// When the verifier itself can prove the warned-about situation is
    /// benign (e.g. the uncovered path is statically infeasible), the proof
    /// sketch lands here and the finding no longer counts against
    /// [`VerifyReport::unexplained_warn_count`]. Always `None` on errors.
    pub explained: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.kind)?;
        if let Some(pc) = self.pc {
            write!(f, " pc {pc}")?;
        }
        if let Some(s) = self.slice {
            write!(f, " slice{s}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(why) = &self.explained {
            write!(f, " (explained: {why})")?;
        }
        Ok(())
    }
}

impl ToJson for Diagnostic {
    /// `{kind, severity, pc?, slice?, message, explained?}`.
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("kind", self.kind.name())
            .with("severity", self.severity.to_string());
        if let Some(pc) = self.pc {
            j.set("pc", pc);
        }
        if let Some(s) = self.slice {
            j.set("slice", s);
        }
        j = j.with("message", self.message.as_str());
        if let Some(why) = &self.explained {
            j.set("explained", why.as_str());
        }
        j
    }
}

/// Tunable bounds for the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// `SFile` capacity used by the register-pressure invariant.
    pub sfile_capacity: usize,
    /// `Hist` capacity used by the key-range invariant.
    pub hist_capacity: usize,
    /// Run the abstract-interpretation passes (`amnesiac-absint`): liveness
    /// proofs, constant folding, divergence detection, and zero-trip
    /// explanations for coverage warnings. On by default; switch off to get
    /// the purely structural verifier.
    pub static_analysis: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            sfile_capacity: DEFAULT_SFILE_CAPACITY,
            hist_capacity: DEFAULT_HIST_CAPACITY,
            static_analysis: true,
        }
    }
}

/// The verifier's findings over one program.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// All findings, in deterministic check order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of basic blocks in the main-code CFG.
    pub blocks: usize,
    /// Number of slices examined.
    pub slices_checked: usize,
}

impl VerifyReport {
    /// Number of [`Severity::Error`] findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of [`Severity::Warn`] findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Warnings with no machine-checked benignity proof attached. This is
    /// the number the lint gate holds at zero: an explained warning is an
    /// allowlisted, understood degradation; an unexplained one is new
    /// information.
    pub fn unexplained_warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn && d.explained.is_none())
            .count()
    }

    /// `true` when no Error-severity invariant is violated (warnings are
    /// allowed: they flag statically unprovable but dynamically safe
    /// situations).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` if any finding has the given kind.
    pub fn has_kind(&self, kind: DiagnosticKind) -> bool {
        self.diagnostics.iter().any(|d| d.kind == kind)
    }
}

impl ToJson for VerifyReport {
    /// `{clean, errors, warnings, unexplained_warnings, blocks,
    /// slices_checked, diagnostics}`.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("clean", self.is_clean())
            .with("errors", self.error_count())
            .with("warnings", self.warn_count())
            .with("unexplained_warnings", self.unexplained_warn_count())
            .with("blocks", self.blocks)
            .with("slices_checked", self.slices_checked)
            .with(
                "diagnostics",
                self.diagnostics
                    .iter()
                    .map(|d| d.to_json())
                    .collect::<Vec<_>>(),
            )
    }
}

/// Verifies a program with the default (paper Table 3) bounds.
pub fn verify(program: &Program) -> VerifyReport {
    verify_with(program, &VerifyOptions::default())
}

/// Verifies a program against [`VerifyOptions`].
///
/// Runs on classic binaries too (the slice checks are vacuous), so callers
/// can gate uniformly. Never panics on malformed or mutated input.
pub fn verify_with(program: &Program, opts: &VerifyOptions) -> VerifyReport {
    verify_decoded(program, &predecode(program), opts)
}

/// [`verify_with`] over a caller-supplied predecoded stream of `program`.
///
/// The compile gate re-verifies after every validation round; sharing the
/// round's predecode (the same stream its replay dispatches on) avoids
/// decoding the annotated binary twice per round.
pub fn verify_decoded(
    program: &Program,
    decoded: &[DecodedInst],
    opts: &VerifyOptions,
) -> VerifyReport {
    let v = Verifier {
        program,
        opts,
        code_len: program.code_len.min(program.instructions.len()),
        diagnostics: Vec::new(),
    };
    v.run(decoded)
}

struct Verifier<'a> {
    program: &'a Program,
    opts: &'a VerifyOptions,
    code_len: usize,
    diagnostics: Vec<Diagnostic>,
}

impl Verifier<'_> {
    fn emit(
        &mut self,
        kind: DiagnosticKind,
        pc: Option<usize>,
        slice: Option<u32>,
        message: String,
    ) {
        self.emit_explained(kind, pc, slice, message, None);
    }

    fn emit_explained(
        &mut self,
        kind: DiagnosticKind,
        pc: Option<usize>,
        slice: Option<u32>,
        message: String,
        explained: Option<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            kind,
            severity: kind.severity(),
            pc,
            slice,
            message,
            explained,
        });
    }

    fn run(mut self, decoded: &[DecodedInst]) -> VerifyReport {
        let cfg = Cfg::build(decoded, self.code_len, self.program.entry);

        self.check_main_region();
        // Slices with a sound RCMP binding, eligible for the path checks.
        let bound: Vec<bool> = (0..self.program.slices.len())
            .map(|i| self.check_slice(i))
            .collect();
        let coverage = RecCoverage::analyze(decoded, self.code_len, &cfg);
        let mut analysis = self
            .opts
            .static_analysis
            .then(|| amnesiac_absint::Analysis::of_program(self.program));
        self.check_rec_coverage(decoded, &cfg, &coverage, &bound, analysis.as_ref());
        self.check_orphan_recs(&coverage);
        if let Some(a) = analysis.as_mut() {
            self.check_absint(a, &bound);
        }

        VerifyReport {
            diagnostics: self.diagnostics,
            blocks: cfg.len(),
            slices_checked: self.program.slices.len(),
        }
    }

    /// Entry placement, control targets, and the fallthrough seal between
    /// the main code and the appended slice region.
    fn check_main_region(&mut self) {
        let p = self.program;
        let code_len = self.code_len;
        if code_len == 0 {
            return;
        }
        if p.entry >= code_len {
            self.emit(
                DiagnosticKind::MainCodeEntersSliceRegion,
                Some(p.entry),
                None,
                format!("entry pc {} is outside the main code region", p.entry),
            );
        }
        for (pc, inst) in p.instructions[..code_len].iter().enumerate() {
            match *inst {
                Instruction::Branch { target, .. } | Instruction::Jump { target }
                    if target >= code_len =>
                {
                    self.emit(
                        DiagnosticKind::MainCodeEntersSliceRegion,
                        Some(pc),
                        None,
                        format!("control target {target} is outside the main code region"),
                    );
                }
                Instruction::Rcmp { slice, .. } => {
                    let idx = slice.index();
                    match p.slices.get(idx) {
                        None => self.emit(
                            DiagnosticKind::RcmpBadTarget,
                            Some(pc),
                            Some(slice.0),
                            format!(
                                "RCMP references unknown slice {} ({} slices in binary)",
                                slice.0,
                                p.slices.len()
                            ),
                        ),
                        Some(meta) if meta.rcmp_pc != pc => self.emit(
                            DiagnosticKind::RcmpBadTarget,
                            Some(pc),
                            Some(slice.0),
                            format!(
                                "RCMP references slice {}, but that slice is owned by the RCMP at pc {}",
                                slice.0, meta.rcmp_pc
                            ),
                        ),
                        Some(_) => {}
                    }
                }
                _ => {}
            }
        }
        // No main-code fallthrough into the appended slice bodies: the last
        // main instruction must end the program or jump away.
        if p.instructions.len() > code_len {
            let last = &p.instructions[code_len - 1];
            let seals = matches!(
                last,
                Instruction::Jump { .. } | Instruction::Halt | Instruction::Rtn { .. }
            );
            if !seals {
                self.emit(
                    DiagnosticKind::MainCodeEntersSliceRegion,
                    Some(code_len - 1),
                    None,
                    format!("main code can fall through into the slice region at pc {code_len}"),
                );
            }
        }
    }

    /// Structural checks of one slice. Returns `true` when the slice's
    /// bounds and RCMP binding are sound enough for the path-sensitive
    /// checks to anchor on `rcmp_pc`.
    fn check_slice(&mut self, idx: usize) -> bool {
        let p = self.program;
        let meta = &p.slices[idx];
        let sid = meta.id.0;

        if meta.id.index() != idx {
            self.emit(
                DiagnosticKind::RcmpBadTarget,
                None,
                Some(sid),
                format!("slice metadata at index {idx} carries id {sid}"),
            );
        }

        // Body placement: strictly inside the appended region.
        let in_bounds = meta.entry >= self.code_len
            && meta.len >= 2
            && meta
                .entry
                .checked_add(meta.len)
                .is_some_and(|end| end <= p.instructions.len());
        if !in_bounds {
            self.emit(
                DiagnosticKind::SliceOutOfBounds,
                Some(meta.entry),
                Some(sid),
                format!(
                    "body [{}, {}+{}) escapes the slice region [{}, {})",
                    meta.entry,
                    meta.entry,
                    meta.len,
                    self.code_len,
                    p.instructions.len()
                ),
            );
        }

        // RCMP ↔ slice binding (the reverse direction of the main scan).
        let rcmp_ok = match p.instructions.get(meta.rcmp_pc) {
            Some(Instruction::Rcmp { slice, .. }) if meta.rcmp_pc < self.code_len => {
                if slice.index() != idx {
                    self.emit(
                        DiagnosticKind::RcmpBadTarget,
                        Some(meta.rcmp_pc),
                        Some(sid),
                        format!(
                            "slice {} claims the RCMP at pc {}, which targets slice {}",
                            sid, meta.rcmp_pc, slice.0
                        ),
                    );
                    false
                } else {
                    true
                }
            }
            _ => {
                self.emit(
                    DiagnosticKind::RcmpBadTarget,
                    Some(meta.rcmp_pc),
                    Some(sid),
                    format!(
                        "slice {} claims an owning RCMP at pc {}, but no main-code RCMP is there",
                        sid, meta.rcmp_pc
                    ),
                );
                false
            }
        };

        if !in_bounds {
            return false;
        }

        // Body purity and the terminating RTN.
        let body = &p.instructions[meta.entry..meta.entry + meta.len];
        for (k, inst) in body[..meta.len - 1].iter().enumerate() {
            if !inst.is_slice_compute() {
                self.emit(
                    DiagnosticKind::SliceSideEffect,
                    Some(meta.entry + k),
                    Some(sid),
                    format!(
                        "slice body instruction {k} is {:?}-category, not pure compute",
                        inst.category()
                    ),
                );
            }
        }
        match body[meta.len - 1] {
            Instruction::Rtn { slice } if slice.index() == idx => {}
            Instruction::Rtn { slice } => self.emit(
                DiagnosticKind::SliceMissingRtn,
                Some(meta.entry + meta.len - 1),
                Some(sid),
                format!("slice {} body ends in RTN for slice {}", sid, slice.0),
            ),
            _ => self.emit(
                DiagnosticKind::SliceMissingRtn,
                Some(meta.entry + meta.len - 1),
                Some(sid),
                format!("slice {sid} body does not end in RTN"),
            ),
        }

        self.check_plans(idx);
        self.check_leaves(idx);

        let compute_len = meta.compute_len();
        if compute_len > self.opts.sfile_capacity {
            self.emit(
                DiagnosticKind::SfilePressure,
                Some(meta.entry),
                Some(sid),
                format!(
                    "{} compute instructions exceed the {}-entry SFile; the runtime will always fall back",
                    compute_len, self.opts.sfile_capacity
                ),
            );
        }

        // Hist keys must index into the checkpoint table: the runtime can
        // neither record nor look up a key past its capacity.
        for key in meta.hist_keys() {
            if key as usize >= self.opts.hist_capacity {
                self.emit(
                    DiagnosticKind::HistKeyOutOfRange,
                    Some(meta.entry),
                    Some(sid),
                    format!(
                        "Hist key {} is outside the {}-entry checkpoint table",
                        key, self.opts.hist_capacity
                    ),
                );
            }
        }

        rcmp_ok
    }

    /// Operand plans against the body instructions (§3.5 leaf/interior
    /// annotation): shape agreement, producer ordering, root register.
    fn check_plans(&mut self, idx: usize) {
        let p = self.program;
        let meta = &p.slices[idx];
        let sid = meta.id.0;
        let compute_len = meta.compute_len();
        if meta.plans.len() != compute_len {
            self.emit(
                DiagnosticKind::OperandPlanMismatch,
                Some(meta.entry),
                Some(sid),
                format!(
                    "{} operand plans for {} compute instructions",
                    meta.plans.len(),
                    compute_len
                ),
            );
            return;
        }
        let mut mismatches = Vec::new();
        for (k, plan) in meta.plans.iter().enumerate() {
            let inst = &p.instructions[meta.entry + k];
            let srcs = inst.srcs();
            for (j, (src, planned)) in srcs.iter().zip(plan.sources.iter()).enumerate() {
                if src.is_some() != planned.is_some() {
                    mismatches.push(format!("inst {k} operand {j} presence"));
                }
            }
            for src in plan.sources.iter().flatten() {
                if let amnesiac_isa::OperandSource::SFile { producer } = src {
                    if *producer as usize >= k {
                        mismatches.push(format!(
                            "inst {k} reads SFile producer {producer} at or after itself"
                        ));
                    }
                }
            }
        }
        if compute_len > 0 {
            let root = &p.instructions[meta.entry + compute_len - 1];
            if root.dst() != Some(meta.root_reg) {
                mismatches.push(format!(
                    "root register {:?} is not the last compute destination {:?}",
                    meta.root_reg,
                    root.dst()
                ));
            }
        }
        for m in mismatches {
            self.emit(
                DiagnosticKind::OperandPlanMismatch,
                Some(meta.entry),
                Some(sid),
                m,
            );
        }
    }

    /// Leaf table against the plans: the leaf set must cover exactly the
    /// instructions with no in-slice producers, with faithful `needs_hist`.
    fn check_leaves(&mut self, idx: usize) {
        let p = self.program;
        let meta = &p.slices[idx];
        let sid = meta.id.0;
        let compute_len = meta.compute_len();
        if meta.plans.len() != compute_len {
            return; // already diagnosed as OperandPlanMismatch
        }
        let mut listed = BTreeSet::new();
        for leaf in &meta.leaves {
            let k = leaf.index as usize;
            if k >= compute_len {
                self.emit(
                    DiagnosticKind::LeafNotCovered,
                    Some(meta.entry),
                    Some(sid),
                    format!("leaf index {k} is outside the {compute_len}-instruction body"),
                );
                continue;
            }
            listed.insert(k);
            if !meta.plans[k].is_leaf() {
                self.emit(
                    DiagnosticKind::LeafNotCovered,
                    Some(meta.entry + k),
                    Some(sid),
                    format!("instruction {k} is listed as a leaf but reads the SFile"),
                );
            }
            if leaf.needs_hist != meta.plans[k].reads_hist() {
                self.emit(
                    DiagnosticKind::LeafNotCovered,
                    Some(meta.entry + k),
                    Some(sid),
                    format!(
                        "leaf {k} declares needs_hist={} but its plan says {}",
                        leaf.needs_hist,
                        meta.plans[k].reads_hist()
                    ),
                );
            }
            if let Some(origin) = leaf.origin_pc {
                if origin >= self.code_len {
                    self.emit(
                        DiagnosticKind::LeafNotCovered,
                        Some(meta.entry + k),
                        Some(sid),
                        format!("leaf {k} origin pc {origin} is outside the main code"),
                    );
                }
            }
        }
        for (k, plan) in meta.plans.iter().enumerate() {
            if plan.is_leaf() && !listed.contains(&k) {
                self.emit(
                    DiagnosticKind::LeafNotCovered,
                    Some(meta.entry + k),
                    Some(sid),
                    format!("instruction {k} has no in-slice producers but is missing from the leaf table"),
                );
            }
        }
    }

    /// Path-sensitive `REC` coverage: every `Hist`-sourced operand of a
    /// reachable `RCMP` must be checkpointed on all paths (invariant 3),
    /// and unreachable `RCMP`s make their slices dead weight.
    fn check_rec_coverage(
        &mut self,
        decoded: &[amnesiac_isa::DecodedInst],
        cfg: &Cfg,
        coverage: &RecCoverage,
        bound: &[bool],
        analysis: Option<&amnesiac_absint::Analysis>,
    ) {
        for (idx, meta) in self.program.slices.iter().enumerate() {
            if !bound.get(idx).copied().unwrap_or(false) {
                continue; // no sound RCMP to anchor the path analysis on
            }
            let sid = meta.id.0;
            if !cfg.is_reachable_pc(meta.rcmp_pc) {
                self.emit(
                    DiagnosticKind::UnreachableSlice,
                    Some(meta.rcmp_pc),
                    Some(sid),
                    format!(
                        "owning RCMP at pc {} is unreachable from the entry",
                        meta.rcmp_pc
                    ),
                );
                continue;
            }
            for key in meta.hist_keys() {
                let sites = coverage.sites(key);
                if sites.is_empty() {
                    self.emit(
                        DiagnosticKind::UncheckpointedHist,
                        Some(meta.rcmp_pc),
                        Some(sid),
                        format!(
                            "Hist-sourced operand @{key} has no reachable REC in the main code"
                        ),
                    );
                    continue;
                }
                // Single checkpoint site: coverage is exactly dominance of
                // the REC over the RCMP. Multiple sites: the general
                // must-reach result.
                let covered = match sites {
                    [only] => cfg.dominates_pc(*only, meta.rcmp_pc),
                    _ => coverage.covered_at(decoded, cfg, meta.rcmp_pc, key),
                };
                if !covered {
                    // The uncovered path may be statically infeasible: the
                    // zero-trip analysis prunes branch edges that cannot be
                    // taken on first traversal (e.g. a counted loop's guard
                    // skipping a body that must run at least once). If some
                    // REC still must-passes on every feasible path, the
                    // Hist entry is recorded before the RCMP can fire and
                    // the warning is a benign artefact of path-insensitive
                    // dominance.
                    let explained = analysis.and_then(|a| {
                        let rb = a.cfg.block_of_pc(meta.rcmp_pc)?;
                        sites.iter().find_map(|&s_pc| {
                            let sb = a.cfg.block_of_pc(s_pc)?;
                            let first = a.zerotrip.must_pass(&a.cfg, sb, rb)
                                && (sb != rb || s_pc < meta.rcmp_pc);
                            first.then(|| {
                                format!(
                                    "zero-trip analysis proves the REC at pc {s_pc} executes \
                                     before the RCMP on every feasible path; the uncovered \
                                     paths cannot be taken"
                                )
                            })
                        })
                    });
                    self.emit_explained(
                        DiagnosticKind::RecNotDominating,
                        Some(meta.rcmp_pc),
                        Some(sid),
                        format!(
                            "REC @{key} (pc {:?}) does not cover every path to the RCMP at pc {}; uncovered paths miss in Hist and fall back to the load",
                            sites, meta.rcmp_pc
                        ),
                        explained,
                    );
                }
            }
        }
    }

    /// Abstract-interpretation findings per slice: dead body compute,
    /// constant-foldable recomputation, provable divergence from the loaded
    /// value, and a liveness-based `SFile` overflow proof.
    fn check_absint(&mut self, analysis: &mut amnesiac_absint::Analysis, bound: &[bool]) {
        let reports = analysis.slice_reports(self.program);
        for report in &reports {
            let idx = report.slice as usize;
            if !bound.get(idx).copied().unwrap_or(false) {
                continue; // structurally broken slices get no derived facts
            }
            let Some(meta) = self.program.slices.get(idx) else {
                continue;
            };
            let sid = meta.id.0;
            if !report.dead_producers.is_empty() {
                self.emit(
                    DiagnosticKind::DeadSliceCompute,
                    Some(meta.entry),
                    Some(sid),
                    format!(
                        "body instruction(s) {:?} produce values nothing consumes",
                        report.dead_producers
                    ),
                );
            }
            if report.peak_sfile > self.opts.sfile_capacity {
                self.emit(
                    DiagnosticKind::SfileOverflow,
                    Some(meta.entry),
                    Some(sid),
                    format!(
                        "body needs {} concurrently live SFile slots, the file has {}",
                        report.peak_sfile, self.opts.sfile_capacity
                    ),
                );
            }
            if let Some(c) = report.recomputed_const {
                if meta.compute_len() > 1 {
                    self.emit(
                        DiagnosticKind::ConstantFoldableSlice,
                        Some(meta.entry),
                        Some(sid),
                        format!(
                            "the {}-instruction recomputation always yields {c}; a single \
                             immediate would do",
                            meta.compute_len()
                        ),
                    );
                }
            }
            if let Some((c, lo, hi)) = report.divergent {
                self.emit(
                    DiagnosticKind::RcmpDivergent,
                    Some(meta.rcmp_pc),
                    Some(sid),
                    format!(
                        "recomputation always yields {c}, but the loaded address can only \
                         hold values in [{lo}, {hi}]; every firing diverges and wastes the \
                         traversal"
                    ),
                );
            }
        }
    }

    /// `REC` keys must be consistent with the slice metadata: a checkpoint
    /// nobody reads is dead `Hist` traffic.
    fn check_orphan_recs(&mut self, coverage: &RecCoverage) {
        let used: BTreeSet<u16> = self
            .program
            .slices
            .iter()
            .flat_map(|m| m.hist_keys())
            .collect();
        let orphans: Vec<(u16, Vec<usize>)> = coverage
            .site_map()
            .filter(|(k, _)| !used.contains(k))
            .map(|(k, sites)| (k, sites.to_vec()))
            .collect();
        for (key, sites) in orphans {
            for pc in sites {
                self.emit(
                    DiagnosticKind::RecKeyOrphan,
                    Some(pc),
                    None,
                    format!("REC @{key} checkpoints a key no slice reads"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{
        AluOp, Instruction, LeafInfo, OperandPlan, OperandSource, Reg, SliceId, SliceMeta,
    };

    /// A minimal clean annotated program:
    ///
    /// ```text
    /// 0: Li   r1, 5
    /// 1: Rec  @0 (r1, r1)        ; checkpoint before the origin
    /// 2: Alu  r2 = r1 + r1       ; origin of the stored value
    /// 3: Store r2 -> [r0 + 100]
    /// 4: Rcmp r3 <- [r0 + 100] | slice 0
    /// 5: Halt
    /// 6: Alu  r2 = Hist@0 + Hist@0   ; slice 0 body (replica of pc 2)
    /// 7: Rtn  slice 0
    /// ```
    fn fixture() -> Program {
        let mut p = Program::new("verify-fixture");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 5,
            },
            Instruction::Rec {
                key: 0,
                srcs: [Some(Reg(1)), Some(Reg(1)), None],
            },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(2),
                lhs: Reg(1),
                rhs: Reg(1),
            },
            Instruction::Store {
                src: Reg(2),
                base: Reg(0),
                offset: 100,
            },
            Instruction::Rcmp {
                dst: Reg(3),
                base: Reg(0),
                offset: 100,
                slice: SliceId(0),
            },
            Instruction::Halt,
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(2),
                lhs: Reg(1),
                rhs: Reg(1),
            },
            Instruction::Rtn { slice: SliceId(0) },
        ];
        p.code_len = 6;
        p.slices = vec![SliceMeta {
            id: SliceId(0),
            rcmp_pc: 4,
            entry: 6,
            len: 2,
            root_reg: Reg(2),
            plans: vec![OperandPlan {
                sources: [
                    Some(OperandSource::Hist { key: 0 }),
                    Some(OperandSource::Hist { key: 0 }),
                    None,
                ],
            }],
            leaves: vec![LeafInfo {
                index: 0,
                needs_hist: true,
                origin_pc: Some(2),
            }],
            has_nonrecomputable: true,
            est_recompute_nj: 1.0,
            est_load_nj: 2.0,
            height: 1,
        }];
        p
    }

    fn kinds(report: &VerifyReport) -> Vec<DiagnosticKind> {
        report.diagnostics.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_fixture_verifies_clean() {
        let report = verify(&fixture());
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.diagnostics, vec![]);
        assert_eq!(report.slices_checked, 1);
        assert!(report.blocks >= 1);
    }

    #[test]
    fn store_in_body_is_a_side_effect() {
        let mut p = fixture();
        p.instructions[6] = Instruction::Store {
            src: Reg(2),
            base: Reg(0),
            offset: 100,
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::SliceSideEffect));
        assert!(!report.is_clean());
    }

    #[test]
    fn missing_rtn_is_flagged() {
        let mut p = fixture();
        p.instructions[7] = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            lhs: Reg(1),
            rhs: Reg(1),
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::SliceMissingRtn));
    }

    #[test]
    fn wrong_rtn_id_is_flagged() {
        let mut p = fixture();
        p.instructions[7] = Instruction::Rtn { slice: SliceId(3) };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::SliceMissingRtn));
    }

    #[test]
    fn body_escaping_the_stream_is_out_of_bounds() {
        let mut p = fixture();
        p.slices[0].len = 40;
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::SliceOutOfBounds));
    }

    #[test]
    fn retargeted_rcmp_is_flagged() {
        let mut p = fixture();
        p.instructions[4] = Instruction::Rcmp {
            dst: Reg(3),
            base: Reg(0),
            offset: 100,
            slice: SliceId(7),
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::RcmpBadTarget));
    }

    #[test]
    fn plan_count_mismatch_is_flagged() {
        let mut p = fixture();
        p.slices[0].plans.clear();
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::OperandPlanMismatch));
    }

    #[test]
    fn self_referential_producer_is_flagged() {
        let mut p = fixture();
        p.slices[0].plans[0].sources[0] = Some(OperandSource::SFile { producer: 0 });
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::OperandPlanMismatch));
    }

    #[test]
    fn empty_leaf_table_is_flagged() {
        let mut p = fixture();
        p.slices[0].leaves.clear();
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::LeafNotCovered));
    }

    #[test]
    fn deleted_rec_is_uncheckpointed() {
        let mut p = fixture();
        p.instructions[1] = Instruction::Jump { target: 2 };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::UncheckpointedHist));
        assert!(!report.is_clean());
    }

    #[test]
    fn bypassable_rec_warns_not_dominating() {
        // Wrap the REC in a conditional: branch from pc 0 over the REC.
        let mut p = fixture();
        p.instructions[0] = Instruction::Branch {
            cond: amnesiac_isa::BranchCond::Eq,
            lhs: Reg(1),
            rhs: Reg(1),
            target: 2,
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::RecNotDominating));
        assert!(
            report.is_clean(),
            "a bypassable REC degrades gracefully at runtime: {:?}",
            report.diagnostics
        );
        // here the bypass is genuinely takeable, so no benignity proof
        assert!(report.unexplained_warn_count() >= 1);
    }

    #[test]
    fn orphan_rec_warns() {
        let mut p = fixture();
        p.instructions[0] = Instruction::Rec {
            key: 9,
            srcs: [Some(Reg(1)), None, None],
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::RecKeyOrphan));
        assert!(report.is_clean());
    }

    #[test]
    fn sfile_pressure_warns_under_tiny_capacity() {
        let p = fixture();
        // static analysis off: this exercises the structural instruction
        // count alone (the liveness pass would upgrade to SfileOverflow)
        let report = verify_with(
            &p,
            &VerifyOptions {
                sfile_capacity: 0,
                static_analysis: false,
                ..Default::default()
            },
        );
        assert!(report.has_kind(DiagnosticKind::SfilePressure));
        assert!(report.is_clean());
    }

    #[test]
    fn liveness_proof_upgrades_pressure_to_overflow() {
        let p = fixture();
        let report = verify_with(
            &p,
            &VerifyOptions {
                sfile_capacity: 0,
                ..Default::default()
            },
        );
        assert!(report.has_kind(DiagnosticKind::SfilePressure));
        assert!(report.has_kind(DiagnosticKind::SfileOverflow));
        assert!(!report.is_clean(), "the overflow proof is a hard error");
    }

    #[test]
    fn hist_key_past_table_capacity_is_an_error() {
        let p = fixture();
        let report = verify_with(
            &p,
            &VerifyOptions {
                hist_capacity: 0,
                ..Default::default()
            },
        );
        assert!(report.has_kind(DiagnosticKind::HistKeyOutOfRange));
        assert!(!report.is_clean());
        // and the default capacity admits the fixture's key 0
        assert!(verify(&p).is_clean());
    }

    #[test]
    fn mismatched_store_makes_the_slice_provably_divergent() {
        // store r1 (= 5) instead of r2 (= 10): the recomputation folds to
        // 10 but the cell can only ever hold 0 or 5
        let mut p = fixture();
        p.instructions[3] = Instruction::Store {
            src: Reg(1),
            base: Reg(0),
            offset: 100,
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::RcmpDivergent));
        assert!(
            report.is_clean(),
            "divergence costs energy, not correctness"
        );
    }

    /// Extends the fixture body to two compute instructions:
    /// `r2 = Hist@0 + Hist@0; r2 = r2 + r2; Rtn`.
    fn two_inst_fixture() -> Program {
        let mut p = fixture();
        p.instructions[7] = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            lhs: Reg(2),
            rhs: Reg(2),
        };
        p.instructions.push(Instruction::Rtn { slice: SliceId(0) });
        p.slices[0].len = 3;
        p.slices[0].plans.push(OperandPlan {
            sources: [
                Some(OperandSource::SFile { producer: 0 }),
                Some(OperandSource::SFile { producer: 0 }),
                None,
            ],
        });
        p
    }

    #[test]
    fn multi_instruction_constant_body_warns_foldable() {
        let report = verify(&two_inst_fixture());
        assert!(report.has_kind(DiagnosticKind::ConstantFoldableSlice));
        assert!(report.is_clean());
    }

    #[test]
    fn unconsumed_body_producer_warns_dead_compute() {
        // make the second instruction ignore the first: producer 0 is dead
        let mut p = two_inst_fixture();
        p.slices[0].plans[1] = OperandPlan {
            sources: [
                Some(OperandSource::Hist { key: 0 }),
                Some(OperandSource::Hist { key: 0 }),
                None,
            ],
        };
        p.slices[0].leaves.push(LeafInfo {
            index: 1,
            needs_hist: true,
            origin_pc: Some(2),
        });
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::DeadSliceCompute));
        assert!(report.is_clean());
    }

    #[test]
    fn loop_guarded_rec_warn_is_explained() {
        // The REC sits inside a counted loop that provably runs at least
        // once. Classic dominance sees the zero-trip path around the body;
        // the zero-trip analysis proves that path infeasible, so the
        // coverage warning carries a benignity proof.
        let mut p = Program::new("loop-rec");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 5,
            },
            Instruction::Li {
                dst: Reg(2),
                imm: 0,
            },
            Instruction::Li {
                dst: Reg(3),
                imm: 3,
            },
            Instruction::Branch {
                cond: amnesiac_isa::BranchCond::Geu,
                lhs: Reg(2),
                rhs: Reg(3),
                target: 7,
            },
            Instruction::Rec {
                key: 0,
                srcs: [Some(Reg(1)), Some(Reg(1)), None],
            },
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(2),
                src: Reg(2),
                imm: 1,
            },
            Instruction::Jump { target: 3 },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(4),
                lhs: Reg(1),
                rhs: Reg(1),
            },
            Instruction::Store {
                src: Reg(4),
                base: Reg(0),
                offset: 100,
            },
            Instruction::Rcmp {
                dst: Reg(5),
                base: Reg(0),
                offset: 100,
                slice: SliceId(0),
            },
            Instruction::Halt,
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(4),
                lhs: Reg(1),
                rhs: Reg(1),
            },
            Instruction::Rtn { slice: SliceId(0) },
        ];
        p.code_len = 11;
        p.slices = vec![SliceMeta {
            id: SliceId(0),
            rcmp_pc: 9,
            entry: 11,
            len: 2,
            root_reg: Reg(4),
            plans: vec![OperandPlan {
                sources: [
                    Some(OperandSource::Hist { key: 0 }),
                    Some(OperandSource::Hist { key: 0 }),
                    None,
                ],
            }],
            leaves: vec![LeafInfo {
                index: 0,
                needs_hist: true,
                origin_pc: Some(7),
            }],
            has_nonrecomputable: true,
            est_recompute_nj: 1.0,
            est_load_nj: 2.0,
            height: 1,
        }];
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::RecNotDominating));
        assert_eq!(
            report.unexplained_warn_count(),
            0,
            "the zero-trip proof explains the warning: {:?}",
            report.diagnostics
        );
        // without the static analysis, the same warning is unexplained
        let bare = verify_with(
            &p,
            &VerifyOptions {
                static_analysis: false,
                ..Default::default()
            },
        );
        assert!(bare.has_kind(DiagnosticKind::RecNotDominating));
        assert!(bare.unexplained_warn_count() >= 1);
    }

    #[test]
    fn fallthrough_into_slice_region_is_flagged() {
        let mut p = fixture();
        p.instructions[5] = Instruction::Li {
            dst: Reg(9),
            imm: 0,
        };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::MainCodeEntersSliceRegion));
    }

    #[test]
    fn branch_into_slice_region_is_flagged() {
        let mut p = fixture();
        p.instructions[0] = Instruction::Jump { target: 6 };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::MainCodeEntersSliceRegion));
    }

    #[test]
    fn unreachable_rcmp_warns() {
        // Jump straight to the Halt: the RCMP at pc 4 is dead.
        let mut p = fixture();
        p.instructions[3] = Instruction::Jump { target: 5 };
        let report = verify(&p);
        assert!(report.has_kind(DiagnosticKind::UnreachableSlice));
        assert!(report.is_clean());
    }

    #[test]
    fn classic_binary_is_vacuously_clean() {
        let mut p = Program::new("classic");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 1,
            },
            Instruction::Halt,
        ];
        p.code_len = 2;
        let report = verify(&p);
        assert!(report.is_clean());
        assert_eq!(report.slices_checked, 0);
    }

    #[test]
    fn report_json_shape() {
        let mut p = fixture();
        p.instructions[1] = Instruction::Jump { target: 2 };
        let report = verify(&p);
        let j = report.to_json();
        assert_eq!(j.get("clean"), Some(&Json::Bool(false)));
        assert!(j.get("errors").and_then(Json::as_f64).unwrap() >= 1.0);
        let diags = j.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.get("kind").and_then(Json::as_str) == Some("uncheckpointed-hist")));
        let text = j.compact();
        let parsed = amnesiac_telemetry::parse(&text).expect("round-trips");
        assert_eq!(parsed.compact(), text);
    }

    #[test]
    fn kinds_have_stable_names_and_severities() {
        use DiagnosticKind::*;
        let all = [
            SliceSideEffect,
            SliceMissingRtn,
            SliceOutOfBounds,
            RcmpBadTarget,
            OperandPlanMismatch,
            LeafNotCovered,
            UncheckpointedHist,
            RecNotDominating,
            RecKeyOrphan,
            SfilePressure,
            MainCodeEntersSliceRegion,
            UnreachableSlice,
            DeadSliceCompute,
            ConstantFoldableSlice,
            RcmpDivergent,
            HistKeyOutOfRange,
            SfileOverflow,
        ];
        let names: BTreeSet<&str> = all.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), all.len(), "names are distinct");
        assert_eq!(
            all.iter()
                .filter(|k| k.severity() == Severity::Error)
                .count(),
            10,
            "ten hard invariants"
        );
    }

    #[test]
    fn diagnostics_are_deterministic() {
        let mut p = fixture();
        p.instructions[1] = Instruction::Jump { target: 2 };
        p.slices[0].leaves.clear();
        let a = kinds(&verify(&p));
        let b = kinds(&verify(&p));
        assert_eq!(a, b);
    }
}
