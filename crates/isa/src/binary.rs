//! A binary image format for programs — including *annotated* binaries
//! with their embedded slices and operand plans, which the textual
//! assembly format deliberately excludes. [`encode_program`] and
//! [`decode_program`] round-trip exactly.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "AMNC" | version u16 | name len u16 + bytes
//! entry u32 | code_len u32
//! n_instructions u32 | encoded instructions (variable length)
//! n_data u32 | (addr u64, value u64)*      strictly ascending addresses
//! n_output u32 | (start u64, len u64)*
//! n_readonly u32 | (start u64, len u64)*
//! n_slices u32 | slice records
//! ```

use crate::inst::{AluOp, BranchCond, CvtKind, FpOp, FpUnOp, Instruction};
use crate::program::{LeafInfo, MemRange, OperandPlan, OperandSource, Program, SliceId, SliceMeta};
use crate::Reg;

/// Image magic bytes.
pub const MAGIC: &[u8; 4] = b"AMNC";
/// Image format version.
pub const VERSION: u16 = 1;

/// Errors from [`decode_program`].
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The image ended mid-field.
    Truncated {
        /// Byte offset where more data was expected.
        at: usize,
    },
    /// An opcode or sub-opcode byte is invalid.
    BadOpcode {
        /// Byte offset of the offending byte.
        at: usize,
        /// The byte found.
        byte: u8,
    },
    /// A data word's address is not above the one before it. Images list
    /// their data words in strictly ascending address order, which is what
    /// [`encode_program`] writes; a duplicate or descending address is
    /// refused rather than sorted, so a decode stays linear in the image.
    UnorderedData {
        /// Byte offset of the offending address.
        at: usize,
        /// The address found.
        addr: u64,
    },
    /// The decoded program failed structural validation.
    Invalid(crate::IsaError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an AMNC image"),
            DecodeError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            DecodeError::Truncated { at } => write!(f, "image truncated at byte {at}"),
            DecodeError::BadOpcode { at, byte } => {
                write!(f, "invalid opcode byte {byte:#04x} at offset {at}")
            }
            DecodeError::UnorderedData { at, addr } => write!(
                f,
                "data address {addr:#x} at offset {at} is not above the previous one"
            ),
            DecodeError::Invalid(e) => write!(f, "decoded program is invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<crate::IsaError> for DecodeError {
    fn from(e: crate::IsaError) -> Self {
        DecodeError::Invalid(e)
    }
}

/// Where an encoding goes: the image's bytes, or only their count.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn reserve(&mut self, _additional: usize) {}
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// Counts the bytes an encoding would write.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

struct Writer<S> {
    out: S,
}

impl<S: Sink> Writer<S> {
    fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.out.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.out.put(&v.to_le_bytes());
    }
    fn reg(&mut self, r: Reg) {
        self.u8(r.0);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(DecodeError::Truncated { at: self.pos })?;
        self.pos += n;
        Ok(slice)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let at = self.pos;
        self.take(N)?
            .try_into()
            .map_err(|_| DecodeError::Truncated { at })
    }
    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [byte] = self.array()?;
        Ok(byte)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn reg(&mut self) -> Result<Reg, DecodeError> {
        Ok(Reg(self.u8()?))
    }
}

fn encode_instruction<S: Sink>(w: &mut Writer<S>, inst: &Instruction) {
    match inst {
        Instruction::Li { dst, imm } => {
            w.u8(0x01);
            w.reg(*dst);
            w.u64(*imm);
        }
        Instruction::Alu { op, dst, lhs, rhs } => {
            w.u8(0x02);
            w.u8(alu_code(*op));
            w.reg(*dst);
            w.reg(*lhs);
            w.reg(*rhs);
        }
        Instruction::Alui { op, dst, src, imm } => {
            w.u8(0x03);
            w.u8(alu_code(*op));
            w.reg(*dst);
            w.reg(*src);
            w.u64(*imm);
        }
        Instruction::Fpu { op, dst, lhs, rhs } => {
            w.u8(0x04);
            w.u8(fp_code(*op));
            w.reg(*dst);
            w.reg(*lhs);
            w.reg(*rhs);
        }
        Instruction::FpuUn { op, dst, src } => {
            w.u8(0x05);
            w.u8(fp_un_code(*op));
            w.reg(*dst);
            w.reg(*src);
        }
        Instruction::Fma { dst, a, b, c } => {
            w.u8(0x06);
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
            w.reg(*c);
        }
        Instruction::Cvt { kind, dst, src } => {
            w.u8(0x07);
            w.u8(match kind {
                CvtKind::I2F => 0,
                CvtKind::F2I => 1,
            });
            w.reg(*dst);
            w.reg(*src);
        }
        Instruction::Load { dst, base, offset } => {
            w.u8(0x08);
            w.reg(*dst);
            w.reg(*base);
            w.i64(*offset);
        }
        Instruction::Store { src, base, offset } => {
            w.u8(0x09);
            w.reg(*src);
            w.reg(*base);
            w.i64(*offset);
        }
        Instruction::Branch {
            cond,
            lhs,
            rhs,
            target,
        } => {
            w.u8(0x0A);
            w.u8(cond_code(*cond));
            w.reg(*lhs);
            w.reg(*rhs);
            w.u32(*target as u32);
        }
        Instruction::Jump { target } => {
            w.u8(0x0B);
            w.u32(*target as u32);
        }
        Instruction::Halt => w.u8(0x0C),
        Instruction::Rcmp {
            dst,
            base,
            offset,
            slice,
        } => {
            w.u8(0x0D);
            w.reg(*dst);
            w.reg(*base);
            w.i64(*offset);
            w.u32(slice.0);
        }
        Instruction::Rtn { slice } => {
            w.u8(0x0E);
            w.u32(slice.0);
        }
        Instruction::Rec { key, srcs } => {
            w.u8(0x0F);
            w.u16(*key);
            let n = srcs.iter().flatten().count() as u8;
            w.u8(n);
            for r in srcs.iter().flatten() {
                w.reg(*r);
            }
        }
    }
}

fn decode_instruction(r: &mut Reader<'_>) -> Result<Instruction, DecodeError> {
    let at = r.pos;
    let opcode = r.u8()?;
    Ok(match opcode {
        0x01 => Instruction::Li {
            dst: r.reg()?,
            imm: r.u64()?,
        },
        0x02 => Instruction::Alu {
            op: alu_from(r.u8()?, at)?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
        },
        0x03 => Instruction::Alui {
            op: alu_from(r.u8()?, at)?,
            dst: r.reg()?,
            src: r.reg()?,
            imm: r.u64()?,
        },
        0x04 => Instruction::Fpu {
            op: fp_from(r.u8()?, at)?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
        },
        0x05 => Instruction::FpuUn {
            op: fp_un_from(r.u8()?, at)?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        0x06 => Instruction::Fma {
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
            c: r.reg()?,
        },
        0x07 => Instruction::Cvt {
            kind: match r.u8()? {
                0 => CvtKind::I2F,
                1 => CvtKind::F2I,
                byte => return Err(DecodeError::BadOpcode { at, byte }),
            },
            dst: r.reg()?,
            src: r.reg()?,
        },
        0x08 => Instruction::Load {
            dst: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
        },
        0x09 => Instruction::Store {
            src: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
        },
        0x0A => Instruction::Branch {
            cond: cond_from(r.u8()?, at)?,
            lhs: r.reg()?,
            rhs: r.reg()?,
            target: r.u32()? as usize,
        },
        0x0B => Instruction::Jump {
            target: r.u32()? as usize,
        },
        0x0C => Instruction::Halt,
        0x0D => Instruction::Rcmp {
            dst: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
            slice: SliceId(r.u32()?),
        },
        0x0E => Instruction::Rtn {
            slice: SliceId(r.u32()?),
        },
        0x0F => {
            let key = r.u16()?;
            let n = r.u8()? as usize;
            if n > 3 {
                return Err(DecodeError::BadOpcode { at, byte: n as u8 });
            }
            let mut srcs = [None, None, None];
            for slot in srcs.iter_mut().take(n) {
                *slot = Some(r.reg()?);
            }
            Instruction::Rec { key, srcs }
        }
        byte => return Err(DecodeError::BadOpcode { at, byte }),
    })
}

macro_rules! code_pairs {
    ($enc:ident, $dec:ident, $ty:ty, [$(($variant:path, $code:expr)),+ $(,)?]) => {
        fn $enc(v: $ty) -> u8 {
            match v {
                $($variant => $code,)+
            }
        }
        fn $dec(byte: u8, at: usize) -> Result<$ty, DecodeError> {
            Ok(match byte {
                $($code => $variant,)+
                _ => return Err(DecodeError::BadOpcode { at, byte }),
            })
        }
    };
}

code_pairs!(
    alu_code,
    alu_from,
    AluOp,
    [
        (AluOp::Add, 0),
        (AluOp::Sub, 1),
        (AluOp::Mul, 2),
        (AluOp::Div, 3),
        (AluOp::Rem, 4),
        (AluOp::And, 5),
        (AluOp::Or, 6),
        (AluOp::Xor, 7),
        (AluOp::Shl, 8),
        (AluOp::Shr, 9),
        (AluOp::Slt, 10),
        (AluOp::Sltu, 11),
        (AluOp::Seq, 12),
        (AluOp::Min, 13),
        (AluOp::Max, 14),
    ]
);
code_pairs!(
    fp_code,
    fp_from,
    FpOp,
    [
        (FpOp::Add, 0),
        (FpOp::Sub, 1),
        (FpOp::Mul, 2),
        (FpOp::Div, 3),
        (FpOp::Min, 4),
        (FpOp::Max, 5),
        (FpOp::Flt, 6),
    ]
);
code_pairs!(
    fp_un_code,
    fp_un_from,
    FpUnOp,
    [
        (FpUnOp::Sqrt, 0),
        (FpUnOp::Neg, 1),
        (FpUnOp::Abs, 2),
        (FpUnOp::Exp, 3),
        (FpUnOp::Ln, 4),
    ]
);
code_pairs!(
    cond_code,
    cond_from,
    BranchCond,
    [
        (BranchCond::Eq, 0),
        (BranchCond::Ne, 1),
        (BranchCond::Lt, 2),
        (BranchCond::Ge, 3),
        (BranchCond::Ltu, 4),
        (BranchCond::Geu, 5),
    ]
);

fn encode_source<S: Sink>(w: &mut Writer<S>, source: &Option<OperandSource>) {
    match source {
        None => w.u8(0),
        Some(OperandSource::LiveReg) => w.u8(1),
        Some(OperandSource::Hist { key }) => {
            w.u8(2);
            w.u16(*key);
        }
        Some(OperandSource::SFile { producer }) => {
            w.u8(3);
            w.u16(*producer);
        }
    }
}

fn decode_source(r: &mut Reader<'_>) -> Result<Option<OperandSource>, DecodeError> {
    let at = r.pos;
    Ok(match r.u8()? {
        0 => None,
        1 => Some(OperandSource::LiveReg),
        2 => Some(OperandSource::Hist { key: r.u16()? }),
        3 => Some(OperandSource::SFile { producer: r.u16()? }),
        byte => return Err(DecodeError::BadOpcode { at, byte }),
    })
}

/// Encodes a program (classic or annotated) to a binary image.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    write_program(&mut w, program);
    w.out
}

/// The length of [`encode_program`]'s image of `program`, without building
/// it: the same walk over the instructions, data, ranges and slices, with
/// each field adding its size instead of its bytes.
pub fn encoded_len(program: &Program) -> usize {
    let mut w = Writer { out: Len(0) };
    write_program(&mut w, program);
    w.out.0
}

fn write_program<S: Sink>(w: &mut Writer<S>, program: &Program) {
    w.out.put(MAGIC);
    w.u16(VERSION);
    w.u16(program.name.len() as u16);
    w.out.put(program.name.as_bytes());
    w.u32(program.entry as u32);
    w.u32(program.code_len as u32);
    w.u32(program.instructions.len() as u32);
    for inst in &program.instructions {
        encode_instruction(w, inst);
    }
    w.u32(program.data.len() as u32);
    w.out.reserve(16 * program.data.len());
    for (base, words) in program.data.runs() {
        for (i, &value) in words.iter().enumerate() {
            w.u64(base + i as u64);
            w.u64(value);
        }
    }
    for ranges in [&program.output, &program.read_only] {
        w.u32(ranges.len() as u32);
        for range in ranges.iter() {
            w.u64(range.start);
            w.u64(range.len);
        }
    }
    w.u32(program.slices.len() as u32);
    for meta in &program.slices {
        w.u32(meta.id.0);
        w.u32(meta.rcmp_pc as u32);
        w.u32(meta.entry as u32);
        w.u32(meta.len as u32);
        w.reg(meta.root_reg);
        w.u8(u8::from(meta.has_nonrecomputable));
        w.u64(meta.est_recompute_nj.to_bits());
        w.u64(meta.est_load_nj.to_bits());
        w.u32(meta.height);
        w.u32(meta.plans.len() as u32);
        for plan in &meta.plans {
            for source in &plan.sources {
                encode_source(w, source);
            }
        }
        w.u32(meta.leaves.len() as u32);
        for leaf in &meta.leaves {
            w.u16(leaf.index);
            w.u8(u8::from(leaf.needs_hist));
            match leaf.origin_pc {
                Some(pc) => {
                    w.u8(1);
                    w.u32(pc as u32);
                }
                None => w.u8(0),
            }
        }
    }
}

/// Decodes a binary image back into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed images or images that decode
/// into structurally invalid programs.
pub fn decode_program(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let name_len = r.u16()? as usize;
    let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
    let entry = r.u32()? as usize;
    let code_len = r.u32()? as usize;
    let n_inst = r.u32()? as usize;
    // an instruction takes at least one byte
    let mut instructions = Vec::with_capacity(n_inst.min(r.remaining()));
    for _ in 0..n_inst {
        instructions.push(decode_instruction(&mut r)?);
    }
    let mut program = Program::new(name);
    program.entry = entry;
    program.code_len = code_len;
    program.instructions = instructions;
    // ascending addresses make every `set` an append; a word takes 16
    // bytes, so a hostile count reserves no more than the image could hold
    let n_data = r.u32()? as usize;
    program.data.reserve(n_data.min(r.remaining() / 16));
    let mut prev = None;
    for _ in 0..n_data {
        let at = r.pos;
        let addr = r.u64()?;
        if prev.is_some_and(|prev| addr <= prev) {
            return Err(DecodeError::UnorderedData { at, addr });
        }
        prev = Some(addr);
        program.data.set(addr, r.u64()?);
    }
    for _ in 0..r.u32()? {
        program.output.push(MemRange::new(r.u64()?, r.u64()?));
    }
    for _ in 0..r.u32()? {
        program.read_only.push(MemRange::new(r.u64()?, r.u64()?));
    }
    let n_slices = r.u32()? as usize;
    for _ in 0..n_slices {
        let id = SliceId(r.u32()?);
        let rcmp_pc = r.u32()? as usize;
        let entry = r.u32()? as usize;
        let len = r.u32()? as usize;
        let root_reg = r.reg()?;
        let has_nonrecomputable = r.u8()? != 0;
        let est_recompute_nj = f64::from_bits(r.u64()?);
        let est_load_nj = f64::from_bits(r.u64()?);
        let height = r.u32()?;
        let n_plans = r.u32()? as usize;
        let mut plans = Vec::with_capacity(n_plans.min(1 << 16));
        for _ in 0..n_plans {
            let mut sources = [None, None, None];
            for slot in &mut sources {
                *slot = decode_source(&mut r)?;
            }
            plans.push(OperandPlan { sources });
        }
        let n_leaves = r.u32()? as usize;
        let mut leaves = Vec::with_capacity(n_leaves.min(1 << 16));
        for _ in 0..n_leaves {
            let index = r.u16()?;
            let needs_hist = r.u8()? != 0;
            let origin_pc = match r.u8()? {
                0 => None,
                _ => Some(r.u32()? as usize),
            };
            leaves.push(LeafInfo {
                index,
                needs_hist,
                origin_pc,
            });
        }
        program.slices.push(SliceMeta {
            id,
            rcmp_pc,
            entry,
            len,
            root_reg,
            plans,
            leaves,
            has_nonrecomputable,
            est_recompute_nj,
            est_load_nj,
            height,
        });
    }
    crate::validate::validate(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::AluOp;

    fn classic() -> Program {
        let mut b = ProgramBuilder::new("bin-test");
        let data = b.alloc_data(&[7, 8, u64::MAX]);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.mark_read_only(data, 3);
        b.li(Reg(1), data);
        b.load(Reg(2), Reg(1), 2);
        b.alui(AluOp::Xor, Reg(3), Reg(2), 0xDEAD_BEEF);
        b.fma(Reg(4), Reg(3), Reg(3), Reg(3));
        let skip = b.label();
        b.branch(crate::inst::BranchCond::Ltu, Reg(3), Reg(2), skip);
        b.store(Reg(3), Reg(1), -1);
        b.bind(skip).unwrap();
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn classic_roundtrip_is_exact() {
        let p = classic();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode_program(&classic());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_program(&bad), Err(DecodeError::BadMagic));
        bytes[4] = 0xFF;
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_program(&classic());
        for cut in 1..bytes.len() {
            let err = decode_program(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::BadOpcode { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_opcode() {
        let p = classic();
        let mut bytes = encode_program(&p);
        // the first instruction opcode sits after magic+version+name+entry+
        // code_len+n_inst
        let offset = 4 + 2 + 2 + p.name.len() + 4 + 4 + 4;
        bytes[offset] = 0xEE;
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::BadOpcode { .. })
        ));
    }

    /// Byte offset of `n_data` in `p`'s image: the image of `p` without
    /// data, ranges or slices ends with those four (zero) counts.
    fn data_offset(p: &Program) -> usize {
        let mut bare = p.clone();
        bare.data = crate::program::DataImage::new();
        bare.output.clear();
        bare.read_only.clear();
        bare.slices.clear();
        encode_program(&bare).len() - 16
    }

    /// `p`'s image with data word `i`'s address replaced by `addr`.
    fn with_data_addr(p: &Program, i: usize, addr: u64) -> (Vec<u8>, usize) {
        let mut bytes = encode_program(p);
        let at = data_offset(p) + 4 + 16 * i;
        bytes[at..at + 8].copy_from_slice(&addr.to_le_bytes());
        (bytes, at)
    }

    #[test]
    fn data_words_must_ascend_strictly() {
        let p = classic(); // data at 0x1000, 0x1001, 0x1002, 0x1003
        let (bytes, _) = with_data_addr(&p, 0, 0x1000);
        assert_eq!(decode_program(&bytes), Ok(p.clone()), "the offset is right");
        // descending: the second word below the first
        let (bytes, at) = with_data_addr(&p, 1, 0x0FFF);
        assert_eq!(
            decode_program(&bytes),
            Err(DecodeError::UnorderedData { at, addr: 0x0FFF })
        );
        // a duplicated address
        let (bytes, at) = with_data_addr(&p, 2, 0x1001);
        assert_eq!(
            decode_program(&bytes),
            Err(DecodeError::UnorderedData { at, addr: 0x1001 })
        );
        // a gap is fine: the image then holds two runs
        let (bytes, _) = with_data_addr(&p, 0, 0x10);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(q.data.runs().count(), 2);
        assert_eq!(encode_program(&q), bytes);
    }

    #[test]
    fn a_data_count_past_the_image_end_is_truncation_not_an_allocation() {
        // the image ends after its four data words, but claims 2^32 - 1
        let p = classic();
        let mut bytes = encode_program(&p);
        let at = data_offset(&p);
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let end = at + 4 + 16 * p.data.len();
        bytes.truncate(end);
        assert_eq!(
            decode_program(&bytes),
            Err(DecodeError::Truncated { at: end })
        );
    }

    #[test]
    fn words_at_the_top_of_the_address_space_round_trip() {
        let mut p = classic();
        p.data.set(u64::MAX - 1, 1);
        p.data.set(u64::MAX, 2);
        let bytes = encode_program(&p);
        assert_eq!(decode_program(&bytes), Ok(p));
    }

    #[test]
    fn code_len_past_the_instruction_stream_is_refused() {
        let p = classic();
        let mut bytes = encode_program(&p);
        let offset = 4 + 2 + 2 + p.name.len() + 4;
        bytes[offset..offset + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::Invalid(crate::IsaError::CodeLenOutOfRange {
                code_len: 1000,
                ..
            }))
        ));
    }

    #[test]
    fn structurally_invalid_decodes_are_rejected() {
        let mut p = classic();
        // corrupt after encoding by pointing entry out of range
        p.entry = 0;
        let mut bytes = encode_program(&p);
        // entry field offset: magic(4)+version(2)+name_len(2)+name
        let offset = 4 + 2 + 2 + p.name.len();
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::Invalid(_))
        ));
    }
}
