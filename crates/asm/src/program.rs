//! Assembled programs.

use hpa_isa::{Inst, INST_BYTES};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An assembled program: a contiguous text segment of decoded instructions
/// plus initial data-memory contents.
///
/// Instruction addresses start at zero and advance by [`INST_BYTES`]; the
/// data segments live in the same flat 64-bit address space and are applied
/// to memory before execution starts. Keeping text and data in disjoint
/// ranges is the program author's responsibility (the workloads place data
/// at `0x1_0000` and above).
///
/// The text, data image and labels are shared, so cloning a program (as
/// every emulator built from it does) copies no instructions or bytes.
/// The parts are never mutated once shared: `add_data` on a clone copies
/// that clone's segment list first.
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Arc<Vec<Inst>>,
    data: Arc<Vec<(u64, Vec<u8>)>>,
    labels: Arc<HashMap<String, u64>>,
}

impl Program {
    /// Creates a program from raw parts.
    #[must_use]
    pub fn new(insts: Vec<Inst>) -> Program {
        Program { insts: Arc::new(insts), ..Program::default() }
    }

    /// Adds an initial data segment at the given byte address.
    pub fn add_data(&mut self, addr: u64, bytes: Vec<u8>) {
        Arc::make_mut(&mut self.data).push((addr, bytes));
    }

    /// Records a label for debugging/disassembly.
    pub(crate) fn add_label(&mut self, name: String, pc: u64) {
        Arc::make_mut(&mut self.labels).insert(name, pc);
    }

    /// The instructions in program order.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The initial data segments as `(address, bytes)` pairs.
    #[must_use]
    pub fn data_segments(&self) -> &[(u64, Vec<u8>)] {
        &self.data
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at a byte address, if it falls inside the text
    /// segment (addresses must be 4-byte aligned).
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        if !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        self.insts.get((pc / INST_BYTES) as usize)
    }

    /// The byte address of a label, if defined.
    #[must_use]
    pub fn label_addr(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Iterates over `(pc, inst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst)> + '_ {
        self.insts.iter().enumerate().map(|(i, inst)| (i as u64 * INST_BYTES, inst))
    }

    /// Encodes the whole text segment into binary words.
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        self.insts.iter().map(hpa_isa::encode).collect()
    }

    /// Decodes a program from binary words.
    ///
    /// # Errors
    ///
    /// Returns the first [`hpa_isa::DecodeError`] encountered.
    pub fn from_words(words: &[u32]) -> Result<Program, hpa_isa::DecodeError> {
        let insts = words.iter().map(|&w| hpa_isa::decode(w)).collect::<Result<_, _>>()?;
        Ok(Program::new(insts))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Data segments first, as the directives the parser accepts, so
        // `parse_program(&p.to_string())` reproduces data as well as text.
        for (addr, bytes) in self.data.iter() {
            writeln!(f, ".org {addr}")?;
            for chunk in bytes.chunks(16) {
                write!(f, ".byte ")?;
                for (i, b) in chunk.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                writeln!(f)?;
            }
        }
        let mut by_addr: Vec<(&str, u64)> =
            self.labels.iter().map(|(n, &a)| (n.as_str(), a)).collect();
        // Co-located labels tie-break by name so rendering is
        // deterministic (the label map iterates in hash order).
        by_addr.sort_by_key(|&(n, a)| (a, n));
        let mut next_label = by_addr.iter().peekable();
        for (pc, inst) in self.iter() {
            while let Some(&&(name, addr)) = next_label.peek() {
                if addr <= pc {
                    writeln!(f, "{name}:")?;
                    next_label.next();
                } else {
                    break;
                }
            }
            writeln!(f, "  {pc:#06x}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_isa::{AluOp, Reg};

    #[test]
    fn fetch_and_roundtrip() {
        let insts = vec![Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3), Inst::Halt];
        let p = Program::new(insts.clone());
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(0), Some(&insts[0]));
        assert_eq!(p.fetch(4), Some(&insts[1]));
        assert_eq!(p.fetch(8), None);
        assert_eq!(p.fetch(2), None, "misaligned fetch");

        let words = p.to_words();
        let back = Program::from_words(&words).unwrap();
        assert_eq!(back.insts(), p.insts());
    }

    /// The structural guard: a clone shares the text and data image, and
    /// adding a segment to one side leaves the other as it was.
    #[test]
    fn clone_shares_text_and_data_image() {
        let mut p = Program::new(vec![Inst::nop(), Inst::Halt]);
        p.add_data(0x1_0000, vec![7; 4096]);
        let mut q = p.clone();
        assert!(std::ptr::eq(p.insts(), q.insts()));
        assert!(std::ptr::eq(p.data_segments(), q.data_segments()));
        assert_eq!(p.data_segments()[0].1.as_ptr(), q.data_segments()[0].1.as_ptr());

        q.add_data(0x2_0000, vec![9]);
        assert_eq!(p.data_segments().len(), 1);
        assert_eq!(q.data_segments().len(), 2);
        assert_eq!(q.data_segments()[0], (0x1_0000, vec![7; 4096]));
    }

    #[test]
    fn display_includes_labels() {
        let mut p = Program::new(vec![Inst::nop(), Inst::Halt]);
        p.add_label("start".into(), 0);
        p.add_label("end".into(), 4);
        let s = p.to_string();
        assert!(s.contains("start:"));
        assert!(s.contains("end:"));
        assert!(s.contains("halt"));
    }
}
