//! Bit-level field layouts of the seven TEPIC operation formats
//! (paper Appendix, Table 2).
//!
//! The layouts are data for the Table 2 printer (`render_table2`) used
//! by the experiment harness. The encoder and decoder in [`crate::op`]
//! carry their own field offsets, and the tailored scheme lists each
//! operation kind's fields in `ccc-core`.

use std::fmt;

/// The seven operation formats of TEPIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpFormat {
    /// Integer ALU operation.
    IntAlu,
    /// Integer (or FP) compare-to-predicate operation.
    IntCmp,
    /// Integer load-immediate operation.
    LoadImm,
    /// Floating-point operation.
    Float,
    /// Load operation.
    Load,
    /// Store operation.
    Store,
    /// Branch operation.
    Branch,
}

impl OpFormat {
    /// All formats in Table 2 order.
    pub const ALL: [OpFormat; 7] = [
        OpFormat::IntAlu,
        OpFormat::IntCmp,
        OpFormat::LoadImm,
        OpFormat::Float,
        OpFormat::Load,
        OpFormat::Store,
        OpFormat::Branch,
    ];

    /// Human-readable name matching the paper's Table 2 captions.
    pub fn name(self) -> &'static str {
        match self {
            OpFormat::IntAlu => "Integer ALU Operation",
            OpFormat::IntCmp => "Integer Compare-to-Predicate Operation",
            OpFormat::LoadImm => "Integer Load Immediate Operation",
            OpFormat::Float => "Floating Point Operation",
            OpFormat::Load => "Load Operation",
            OpFormat::Store => "Store Operation",
            OpFormat::Branch => "Branch Operation",
        }
    }

    /// The ordered field layout of this format. Offsets are LSB-first and
    /// the widths always sum to 40.
    pub fn fields(self) -> &'static [FieldSpec] {
        match self {
            OpFormat::IntAlu => &INT_ALU_FIELDS,
            OpFormat::IntCmp => &INT_CMP_FIELDS,
            OpFormat::LoadImm => &LOAD_IMM_FIELDS,
            OpFormat::Float => &FLOAT_FIELDS,
            OpFormat::Load => &LOAD_FIELDS,
            OpFormat::Store => &STORE_FIELDS,
            OpFormat::Branch => &BRANCH_FIELDS,
        }
    }
}

impl fmt::Display for OpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One field of an operation format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    /// Field name as printed in Table 2.
    pub name: &'static str,
    /// Bit offset (LSB-first) within the 40-bit word.
    pub offset: u32,
    /// Width in bits.
    pub width: u32,
}

const fn fs(name: &'static str, offset: u32, width: u32) -> FieldSpec {
    FieldSpec {
        name,
        offset,
        width,
    }
}

static INT_ALU_FIELDS: [FieldSpec; 10] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("Src2", 14, 5),
    fs("BHWX", 19, 2),
    fs("Reserved", 21, 8),
    fs("Dest", 29, 5),
    // L1 and PREDICATE are merged into the trailing guard fields below.
    fs("L1+PREDICATE", 34, 6),
];

static INT_CMP_FIELDS: [FieldSpec; 11] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("Src2", 14, 5),
    fs("BHWX", 19, 2),
    fs("D1", 21, 3),
    fs("Reserved", 24, 5),
    fs("Dest", 29, 5),
    fs("L1+PREDICATE", 34, 6),
];

static LOAD_IMM_FIELDS: [FieldSpec; 7] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1(imm20)", 9, 20),
    fs("Dest", 29, 5),
    fs("L1+PREDICATE", 34, 6),
];

static FLOAT_FIELDS: [FieldSpec; 10] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("Src2", 14, 5),
    fs("S/D", 19, 1),
    fs("Reserved", 20, 6),
    fs("tssL/U", 26, 3),
    fs("Dest+L1+PREDICATE", 29, 11),
];

static LOAD_FIELDS: [FieldSpec; 12] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("BHWX", 14, 2),
    fs("SCS", 16, 2),
    fs("Res", 18, 1),
    fs("TCS", 19, 2),
    fs("Reserved+Lat", 21, 8),
    fs("Dest", 29, 5),
    fs("Rsv+PREDICATE", 34, 6),
];

static STORE_FIELDS: [FieldSpec; 10] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("Src2", 14, 5),
    fs("BHWX", 19, 2),
    fs("TCS", 21, 2),
    fs("Reserved", 23, 11),
    fs("L1+PREDICATE", 34, 6),
];

static BRANCH_FIELDS: [FieldSpec; 8] = [
    fs("T", 0, 1),
    fs("S", 1, 1),
    fs("OPT", 2, 2),
    fs("OPCODE", 4, 5),
    fs("Src1", 9, 5),
    fs("Counter", 14, 5),
    fs("Target", 19, 16),
    fs("PREDICATE", 35, 5),
];

/// Renders the paper's Table 2 ("Summary of the baseline TEPIC ISA") as
/// fixed-width text, one row of field names and widths per format.
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str("Table 2. Summary of the baseline TEPIC ISA (40-bit operations)\n");
    for fmt in OpFormat::ALL {
        out.push_str(&format!("\n{}\n", fmt.name()));
        let widths: Vec<String> = fmt.fields().iter().map(|f| f.width.to_string()).collect();
        let names: Vec<&str> = fmt.fields().iter().map(|f| f.name).collect();
        for (w, n) in widths.iter().zip(&names) {
            out.push_str(&format!("  {:>2}  {}\n", w, n));
        }
        let total: u32 = fmt.fields().iter().map(|f| f.width).sum();
        out.push_str(&format!("  --  total {total} bits\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_format_covers_exactly_40_bits() {
        for fmt in OpFormat::ALL {
            let fields = fmt.fields();
            let total: u32 = fields.iter().map(|f| f.width).sum();
            assert_eq!(total, 40, "{fmt:?} fields sum to {total}, expected 40");
            // Fields must be contiguous and non-overlapping, in order.
            let mut cursor = 0;
            for f in fields {
                assert_eq!(f.offset, cursor, "{fmt:?}/{} not contiguous", f.name);
                cursor += f.width;
            }
            assert_eq!(cursor, 40);
        }
    }

    #[test]
    fn header_fields_are_uniform_across_formats() {
        for fmt in OpFormat::ALL {
            let f = fmt.fields();
            assert_eq!((f[0].offset, f[0].width), (0, 1), "{fmt:?} T");
            assert_eq!((f[1].offset, f[1].width), (1, 1), "{fmt:?} S");
            assert_eq!((f[2].offset, f[2].width), (2, 2), "{fmt:?} OPT");
            assert_eq!((f[3].offset, f[3].width), (4, 5), "{fmt:?} OPCODE");
        }
    }

    #[test]
    fn table2_renders_every_format() {
        let s = render_table2();
        for fmt in OpFormat::ALL {
            assert!(s.contains(fmt.name()), "missing {}", fmt.name());
        }
        assert!(s.contains("total 40 bits"));
    }
}
