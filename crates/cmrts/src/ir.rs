//! The node-program IR the CM Fortran compiler lowers to.
//!
//! A program is a control-processor-sequenced list of [`Step`]s. Parallel
//! work happens in [`NodeCodeBlock`]s ("node code blocks" in the paper's
//! §6.1-6.2): compiler-generated functions, broadcast to every node and
//! executed SPMD over each node's subgrids. A block carries the *mapping
//! payload* the measurement stack needs: which source lines it implements,
//! which arrays it takes as arguments (what the dispatcher reports to the
//! SAS), and pre-interned sentences for lines/arrays/operations.

use crate::types::{ArrayId, BinOpKind, CmpKind, Distribution, ReduceKind, ScalarId};
use pdmap::model::SentenceId;
use std::fmt;

/// A value operand for element-wise operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A distributed array (shape must match the destination).
    Array(ArrayId),
    /// A front-end scalar, broadcast to the nodes.
    Scalar(ScalarId),
    /// A compile-time constant.
    Const(f64),
}

/// One node-level operation.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeOp {
    /// `dst = value` everywhere.
    Fill {
        /// Destination array.
        dst: ArrayId,
        /// Value stored in every element.
        value: Operand,
    },
    /// `dst[i] = start + step * i` over the global linear index.
    Ramp {
        /// Destination array.
        dst: ArrayId,
        /// Value at index 0.
        start: f64,
        /// Increment per element.
        step: f64,
    },
    /// `dst = src` element-wise (same shape and distribution).
    Copy {
        /// Destination array.
        dst: ArrayId,
        /// Source array.
        src: ArrayId,
    },
    /// `dst = a <op> b` element-wise.
    BinOp {
        /// Destination array.
        dst: ArrayId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// The operation.
        op: BinOpKind,
    },
    /// Global reduction of `src` into front-end scalar `dst`.
    Reduce {
        /// Reduction kind.
        kind: ReduceKind,
        /// Source array.
        src: ArrayId,
        /// Front-end scalar receiving the result.
        dst: ScalarId,
    },
    /// Parallel-prefix over the global element order.
    Scan {
        /// Combine kind.
        kind: ReduceKind,
        /// Source array.
        src: ArrayId,
        /// Destination array (same shape).
        dst: ArrayId,
    },
    /// Shift along one axis; `circular` wraps (CSHIFT), otherwise vacated
    /// positions get 0 (EOSHIFT). `dim` = 0 shifts the distributed axis
    /// (`dst[r] = src[r - offset]`, inter-node messages); `dim` = 1 shifts
    /// within rows (node-local, no communication) and requires 2-D arrays.
    Shift {
        /// Destination array.
        dst: ArrayId,
        /// Source array (same shape).
        src: ArrayId,
        /// Shift distance (may be negative).
        offset: i64,
        /// CSHIFT vs EOSHIFT.
        circular: bool,
        /// Shifted axis (0 = distributed, 1 = within rows).
        dim: usize,
    },
    /// 2-D transpose: `dst[j][i] = src[i][j]`.
    Transpose {
        /// Destination array with swapped extents.
        dst: ArrayId,
        /// Source array.
        src: ArrayId,
    },
    /// Global ascending sort of all elements.
    Sort {
        /// Destination array (same shape).
        dst: ArrayId,
        /// Source array.
        src: ArrayId,
    },
    /// File I/O through the control processor.
    FileIo {
        /// Bytes transferred.
        bytes: u64,
        /// True for writes, false for reads.
        write: bool,
    },
    /// `dst = if a <cmp> b { 1.0 } else { 0.0 }` element-wise — mask
    /// construction for WHERE.
    Compare {
        /// Destination mask array.
        dst: ArrayId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// The comparison.
        cmp: CmpKind,
    },
    /// `dst = if mask != 0 { on_true } else { on_false }` element-wise —
    /// the WHERE merge.
    Select {
        /// Destination array.
        dst: ArrayId,
        /// Mask array (same shape).
        mask: ArrayId,
        /// Value where the mask holds.
        on_true: Operand,
        /// Value where it does not.
        on_false: Operand,
    },
}

/// A node operation plus the high-level sentence active while it runs
/// (e.g. `{A} Sums` during a `Reduce` of A). `None` when the language layer
/// defined no sentence for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Instr {
    /// The operation.
    pub op: NodeOp,
    /// High-level operation sentence, if any.
    pub sentence: Option<SentenceId>,
}

impl Instr {
    /// An instruction with no operation sentence.
    pub fn bare(op: NodeOp) -> Self {
        Self { op, sentence: None }
    }

    /// An instruction carrying an operation sentence.
    pub fn with_sentence(op: NodeOp, sentence: SentenceId) -> Self {
        Self {
            op,
            sentence: Some(sentence),
        }
    }
}

/// A compiler-generated node code block.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NodeCodeBlock {
    /// Mangled name, e.g. `cmpe_corner_6_`.
    pub name: String,
    /// Source lines this block implements.
    pub lines: Vec<u32>,
    /// Argument arrays — what the dispatcher hands to the SAS (§6.1).
    pub args: Vec<ArrayId>,
    /// `{cmpe_x_()} Executes` at the Base level.
    pub block_sentence: Option<SentenceId>,
    /// `{lineN} Executes` sentences, one per entry of `lines`.
    pub line_sentences: Vec<SentenceId>,
    /// `(array, {array} Active)` pairs, one per entry of `args`.
    pub array_sentences: Vec<(ArrayId, SentenceId)>,
    /// The operations, executed in order on every node.
    pub body: Vec<Instr>,
}

/// A front-end scalar expression (computed on the control processor).
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Literal.
    Const(f64),
    /// Another scalar.
    Scalar(ScalarId),
    /// Binary combination.
    Bin(BinOpKind, Box<ScalarExpr>, Box<ScalarExpr>),
}

/// One control-processor step.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Allocate a declared array (fires the alloc mapping point).
    Alloc(ArrayId),
    /// Free an array.
    Free(ArrayId),
    /// Broadcast and run a node code block.
    Ncb(NodeCodeBlock),
    /// Compute a scalar on the front end.
    ScalarAssign {
        /// Destination scalar.
        dst: ScalarId,
        /// Expression over scalars/constants.
        expr: ScalarExpr,
    },
}

/// Declaration of a distributed array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Extents; the first axis is distributed. 1-D and 2-D supported.
    pub extents: Vec<usize>,
    /// Distribution of the first axis.
    pub dist: Distribution,
}

impl ArrayDecl {
    /// Rows along the distributed axis.
    pub fn rows(&self) -> usize {
        self.extents.first().copied().unwrap_or(0)
    }

    /// Elements per row.
    pub fn row_width(&self) -> usize {
        self.extents.iter().skip(1).product()
    }

    /// Total elements.
    pub fn total_elems(&self) -> usize {
        self.extents.iter().product()
    }
}

/// A complete program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Source file name (e.g. `bow.fcm`).
    pub name: String,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Scalar names, indexed by [`ScalarId`].
    pub scalars: Vec<String>,
    /// The step sequence.
    pub steps: Vec<Step>,
}

/// IR validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrError(pub String);

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR error: {}", self.0)
    }
}

impl std::error::Error for IrError {}

impl Program {
    /// Looks up an array id by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Looks up a scalar id by name.
    pub fn scalar_by_name(&self, name: &str) -> Option<ScalarId> {
        self.scalars
            .iter()
            .position(|s| s == name)
            .map(|i| ScalarId(i as u32))
    }

    fn check_array(&self, id: ArrayId, what: &str) -> Result<&ArrayDecl, IrError> {
        self.arrays
            .get(id.index())
            .ok_or_else(|| IrError(format!("{what}: array id {id:?} out of range")))
    }

    fn check_scalar(&self, id: ScalarId, what: &str) -> Result<(), IrError> {
        if id.index() >= self.scalars.len() {
            return Err(IrError(format!("{what}: scalar id {id:?} out of range")));
        }
        Ok(())
    }

    fn check_same_shape(&self, a: ArrayId, b: ArrayId, what: &str) -> Result<(), IrError> {
        let da = self.check_array(a, what)?;
        let db = self.check_array(b, what)?;
        if da.extents != db.extents {
            return Err(IrError(format!(
                "{what}: shape mismatch {:?} vs {:?} ({} vs {})",
                da.extents, db.extents, da.name, db.name
            )));
        }
        Ok(())
    }

    fn check_operand(&self, o: &Operand, shape_of: ArrayId, what: &str) -> Result<(), IrError> {
        match o {
            Operand::Array(a) => self.check_same_shape(*a, shape_of, what),
            Operand::Scalar(s) => self.check_scalar(*s, what),
            Operand::Const(_) => Ok(()),
        }
    }

    /// Validates ids, shapes, and allocation discipline (every NCB argument
    /// must be allocated before use and not freed).
    pub fn validate(&self) -> Result<(), IrError> {
        let mut allocated = vec![false; self.arrays.len()];
        for (i, step) in self.steps.iter().enumerate() {
            let at = format!("step {i}");
            match step {
                Step::Alloc(a) => {
                    self.check_array(*a, &at)?;
                    if allocated[a.index()] {
                        return Err(IrError(format!("{at}: double allocation of array {a:?}")));
                    }
                    allocated[a.index()] = true;
                }
                Step::Free(a) => {
                    self.check_array(*a, &at)?;
                    if !allocated[a.index()] {
                        return Err(IrError(format!("{at}: freeing unallocated array {a:?}")));
                    }
                    allocated[a.index()] = false;
                }
                Step::ScalarAssign { dst, expr } => {
                    self.check_scalar(*dst, &at)?;
                    validate_scalar_expr(self, expr, &at)?;
                }
                Step::Ncb(ncb) => {
                    if ncb.line_sentences.len() > ncb.lines.len() {
                        return Err(IrError(format!(
                            "{at}: block {} has more line sentences than lines",
                            ncb.name
                        )));
                    }
                    for &arg in &ncb.args {
                        self.check_array(arg, &at)?;
                        if !allocated[arg.index()] {
                            return Err(IrError(format!(
                                "{at}: block {} uses unallocated array {:?}",
                                ncb.name,
                                self.arrays[arg.index()].name
                            )));
                        }
                    }
                    for instr in &ncb.body {
                        self.validate_op(&instr.op, &at)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_op(&self, op: &NodeOp, at: &str) -> Result<(), IrError> {
        match op {
            NodeOp::Fill { dst, value } => {
                self.check_array(*dst, at)?;
                self.check_operand(value, *dst, at)
            }
            NodeOp::Ramp { dst, .. } => self.check_array(*dst, at).map(|_| ()),
            NodeOp::Copy { dst, src } => self.check_same_shape(*dst, *src, at),
            NodeOp::BinOp { dst, a, b, .. } => {
                self.check_array(*dst, at)?;
                self.check_operand(a, *dst, at)?;
                self.check_operand(b, *dst, at)
            }
            NodeOp::Reduce { src, dst, .. } => {
                self.check_array(*src, at)?;
                self.check_scalar(*dst, at)
            }
            NodeOp::Scan { src, dst, .. } => self.check_same_shape(*dst, *src, at),
            NodeOp::Shift { dst, src, dim, .. } => {
                if *dim > 1 {
                    return Err(IrError(format!("{at}: shift dim must be 0 or 1")));
                }
                if *dim == 1 && self.check_array(*dst, at)?.extents.len() != 2 {
                    return Err(IrError(format!("{at}: dim-1 shift requires a 2-D array")));
                }
                self.check_same_shape(*dst, *src, at)
            }
            NodeOp::Transpose { dst, src } => {
                let ds = self.check_array(*dst, at)?;
                let ss = self.check_array(*src, at)?;
                if ss.extents.len() != 2 || ds.extents.len() != 2 {
                    return Err(IrError(format!("{at}: transpose requires 2-D arrays")));
                }
                if ds.extents[0] != ss.extents[1] || ds.extents[1] != ss.extents[0] {
                    return Err(IrError(format!(
                        "{at}: transpose shape mismatch {:?} vs {:?}",
                        ss.extents, ds.extents
                    )));
                }
                Ok(())
            }
            NodeOp::Sort { dst, src } => self.check_same_shape(*dst, *src, at),
            NodeOp::FileIo { .. } => Ok(()),
            NodeOp::Compare { dst, a, b, .. } => {
                self.check_array(*dst, at)?;
                self.check_operand(a, *dst, at)?;
                self.check_operand(b, *dst, at)
            }
            NodeOp::Select {
                dst,
                mask,
                on_true,
                on_false,
            } => {
                self.check_same_shape(*dst, *mask, at)?;
                self.check_operand(on_true, *dst, at)?;
                self.check_operand(on_false, *dst, at)
            }
        }
    }
}

fn validate_scalar_expr(p: &Program, e: &ScalarExpr, at: &str) -> Result<(), IrError> {
    match e {
        ScalarExpr::Const(_) => Ok(()),
        ScalarExpr::Scalar(s) => p.check_scalar(*s, at),
        ScalarExpr::Bin(_, a, b) => {
            validate_scalar_expr(p, a, at)?;
            validate_scalar_expr(p, b, at)
        }
    }
}

/// Convenience builder for programs constructed in tests, benches, and the
/// compiler back end.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Starts a program named after its source file.
    pub fn new(name: &str) -> Self {
        Self {
            program: Program {
                name: name.to_string(),
                ..Program::default()
            },
        }
    }

    /// Declares an array (not yet allocated).
    pub fn array(&mut self, name: &str, extents: &[usize], dist: Distribution) -> ArrayId {
        let id = ArrayId(self.program.arrays.len() as u32);
        self.program.arrays.push(ArrayDecl {
            name: name.to_string(),
            extents: extents.to_vec(),
            dist,
        });
        id
    }

    /// Declares and immediately allocates an array.
    pub fn alloc(&mut self, name: &str, extents: &[usize], dist: Distribution) -> ArrayId {
        let id = self.array(name, extents, dist);
        self.program.steps.push(Step::Alloc(id));
        id
    }

    /// Declares a front-end scalar.
    pub fn scalar(&mut self, name: &str) -> ScalarId {
        let id = ScalarId(self.program.scalars.len() as u32);
        self.program.scalars.push(name.to_string());
        id
    }

    /// Appends a step.
    pub fn step(&mut self, step: Step) -> &mut Self {
        self.program.steps.push(step);
        self
    }

    /// Appends a single-op anonymous node code block touching `args`.
    pub fn simple_ncb(&mut self, name: &str, args: &[ArrayId], op: NodeOp) -> &mut Self {
        self.program.steps.push(Step::Ncb(NodeCodeBlock {
            name: name.to_string(),
            args: args.to_vec(),
            body: vec![Instr::bare(op)],
            ..NodeCodeBlock::default()
        }));
        self
    }

    /// Validates and returns the program.
    pub fn build(self) -> Result<Program, IrError> {
        self.program.validate()?;
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_program() {
        let mut b = ProgramBuilder::new("t.fcm");
        let a = b.alloc("A", &[100], Distribution::Block);
        let s = b.scalar("ASUM");
        b.simple_ncb(
            "cmpe_t_1_",
            &[a],
            NodeOp::Reduce {
                kind: ReduceKind::Sum,
                src: a,
                dst: s,
            },
        );
        let p = b.build().unwrap();
        assert_eq!(p.arrays.len(), 1);
        assert_eq!(p.array_by_name("A"), Some(a));
        assert_eq!(p.scalar_by_name("ASUM"), Some(s));
        assert_eq!(p.scalar_by_name("nope"), None);
    }

    #[test]
    fn unallocated_arg_is_rejected() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[10], Distribution::Block); // declared, not allocated
        b.simple_ncb(
            "blk",
            &[a],
            NodeOp::Fill {
                dst: a,
                value: Operand::Const(0.0),
            },
        );
        let err = b.build().unwrap_err();
        assert!(err.0.contains("unallocated"));
    }

    #[test]
    fn double_alloc_and_bad_free_rejected() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[10], Distribution::Block);
        b.step(Step::Alloc(a));
        assert!(b.build().unwrap_err().0.contains("double allocation"));

        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[10], Distribution::Block);
        b.step(Step::Free(a));
        assert!(b.build().unwrap_err().0.contains("unallocated"));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[10], Distribution::Block);
        let c = b.alloc("B", &[20], Distribution::Block);
        b.simple_ncb("blk", &[a, c], NodeOp::Copy { dst: a, src: c });
        assert!(b.build().unwrap_err().0.contains("shape mismatch"));
    }

    #[test]
    fn transpose_shape_rules() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[4, 8], Distribution::Block);
        let t = b.alloc("T", &[8, 4], Distribution::Block);
        b.simple_ncb("blk", &[a, t], NodeOp::Transpose { dst: t, src: a });
        assert!(b.build().is_ok());

        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[4, 8], Distribution::Block);
        let bad = b.alloc("T", &[4, 8], Distribution::Block);
        b.simple_ncb("blk", &[a, bad], NodeOp::Transpose { dst: bad, src: a });
        assert!(b.build().unwrap_err().0.contains("transpose"));

        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[8], Distribution::Block);
        let t = b.alloc("T", &[8], Distribution::Block);
        b.simple_ncb("blk", &[a, t], NodeOp::Transpose { dst: t, src: a });
        assert!(b.build().unwrap_err().0.contains("2-D"));
    }

    #[test]
    fn scalar_expr_validation() {
        let mut b = ProgramBuilder::new("t");
        let s = b.scalar("x");
        b.step(Step::ScalarAssign {
            dst: s,
            expr: ScalarExpr::Bin(
                BinOpKind::Add,
                Box::new(ScalarExpr::Const(1.0)),
                Box::new(ScalarExpr::Scalar(ScalarId(7))),
            ),
        });
        assert!(b.build().unwrap_err().0.contains("scalar id"));
    }

    #[test]
    fn array_decl_geometry() {
        let d = ArrayDecl {
            name: "M".into(),
            extents: vec![8, 16],
            dist: Distribution::Block,
        };
        assert_eq!(d.rows(), 8);
        assert_eq!(d.row_width(), 16);
        assert_eq!(d.total_elems(), 128);
    }
}
