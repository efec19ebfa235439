//! Functions, modules, globals and the function builder.

use crate::inst::{BlockRef, FBinOp, IBinOp, IUnOp, Inst, RegClass, Terminator, VReg, Width};
use std::fmt;

/// Reference to a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Reference to a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// A statically allocated data object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name for listings.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial contents; zero-filled up to `size` when shorter.
    pub init: Vec<u8>,
}

/// One basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// The block's single terminator.
    pub term: Terminator,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name (unique within the module).
    pub name: String,
    /// Number of parameters; parameters are `VReg(0)..VReg(nparams)` and
    /// all of class `Int` or `Float` per `vreg_classes`.
    pub num_params: u32,
    /// Return class, if the function returns a value.
    pub ret: Option<RegClass>,
    /// Basic blocks; `BlockRef(0)` is the entry.
    pub blocks: Vec<Block>,
    /// Class of every virtual register.
    pub vreg_classes: Vec<RegClass>,
}

impl Function {
    /// The entry block.
    pub fn entry(&self) -> BlockRef {
        BlockRef(0)
    }

    /// Class of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this function's builder.
    pub fn class_of(&self, v: VReg) -> RegClass {
        self.vreg_classes[v.0 as usize]
    }

    /// Borrowed block.
    pub fn block(&self, b: BlockRef) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable block.
    pub fn block_mut(&mut self, b: BlockRef) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Iterates over block refs in index order.
    pub fn block_refs(&self) -> impl Iterator<Item = BlockRef> {
        (0..self.blocks.len() as u32).map(BlockRef)
    }

    /// Allocates a fresh virtual register of the given class (used by
    /// optimization passes that need temporaries).
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        let v = VReg(self.vreg_classes.len() as u32);
        self.vreg_classes.push(class);
        v
    }
}

/// A whole-program module: functions plus global data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    funcs: Vec<Function>,
    globals: Vec<Global>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// All functions.
    pub fn funcs(&self) -> &[Function] {
        &self.funcs
    }

    /// Mutable access to all functions.
    pub fn funcs_mut(&mut self) -> &mut [Function] {
        &mut self.funcs
    }

    /// All globals.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// The function with the given id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Verifies every function; see [`crate::verify`].
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::VerifyError`] found.
    pub fn verify(&self) -> Result<(), crate::VerifyError> {
        crate::verify::verify_module(self)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::module_to_string(self))
    }
}

/// Incremental function construction.
///
/// Parameters become `VReg(0)..VReg(n)`; blocks are created with
/// [`FunctionBuilder::new_block`] and filled through the typed emit
/// helpers, each returning the destination vreg.
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
}

impl FunctionBuilder {
    /// Starts a function with `num_params` integer parameters (use
    /// [`FunctionBuilder::new_float_params`] afterwards to retype) and an
    /// optional return class. The entry block exists immediately.
    pub fn new(name: &str, num_params: u32, ret: Option<RegClass>) -> FunctionBuilder {
        FunctionBuilder {
            f: Function {
                name: name.to_string(),
                num_params,
                ret,
                blocks: vec![Block {
                    insts: vec![],
                    term: Terminator::Halt,
                }],
                vreg_classes: vec![RegClass::Int; num_params as usize],
            },
        }
    }

    /// Retypes parameter `i` as a float.
    pub fn new_float_params(&mut self, indices: &[u32]) {
        for &i in indices {
            self.f.vreg_classes[i as usize] = RegClass::Float;
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockRef {
        BlockRef(0)
    }

    /// The `i`-th parameter register.
    pub fn param(&self, i: u32) -> VReg {
        assert!(i < self.f.num_params);
        VReg(i)
    }

    /// Creates an empty block (terminator defaults to `Halt`; set it).
    pub fn new_block(&mut self) -> BlockRef {
        let b = BlockRef(self.f.blocks.len() as u32);
        self.f.blocks.push(Block {
            insts: vec![],
            term: Terminator::Halt,
        });
        b
    }

    /// Allocates a fresh vreg.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        self.f.new_vreg(class)
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, b: BlockRef, inst: Inst) {
        self.f.blocks[b.0 as usize].insts.push(inst);
    }

    /// Sets a block's terminator.
    pub fn set_term(&mut self, b: BlockRef, term: Terminator) {
        self.f.blocks[b.0 as usize].term = term;
    }

    /// Emits an integer constant.
    pub fn iconst(&mut self, b: BlockRef, value: i64) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(b, Inst::IConst { dst, value });
        dst
    }

    /// Emits a float constant.
    pub fn fconst(&mut self, b: BlockRef, value: f32) -> VReg {
        let dst = self.new_vreg(RegClass::Float);
        self.push(b, Inst::FConst { dst, value });
        dst
    }

    /// Emits a global-address materialization.
    pub fn global_addr(&mut self, b: BlockRef, global: GlobalId) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(b, Inst::GlobalAddr { dst, global });
        dst
    }

    /// Emits an integer binary op.
    pub fn ibin(&mut self, b: BlockRef, op: IBinOp, a: VReg, c: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(b, Inst::IBin { op, dst, a, b: c });
        dst
    }

    /// Emits an integer unary op.
    pub fn iun(&mut self, b: BlockRef, op: IUnOp, a: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(b, Inst::IUn { op, dst, a });
        dst
    }

    /// Emits a float binary op.
    pub fn fbin(&mut self, b: BlockRef, op: FBinOp, a: VReg, c: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Float);
        self.push(b, Inst::FBin { op, dst, a, b: c });
        dst
    }

    /// Emits an integer compare producing a predicate.
    pub fn icmp(&mut self, b: BlockRef, cond: crate::inst::Cond, a: VReg, c: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Pred);
        self.push(b, Inst::ICmp { cond, dst, a, b: c });
        dst
    }

    /// Emits a float compare producing a predicate.
    pub fn fcmp(&mut self, b: BlockRef, cond: crate::inst::Cond, a: VReg, c: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Pred);
        self.push(b, Inst::FCmp { cond, dst, a, b: c });
        dst
    }

    /// Emits a load.
    pub fn load(&mut self, b: BlockRef, width: Width, base: VReg, offset: i32) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(
            b,
            Inst::Load {
                width,
                dst,
                base,
                offset,
            },
        );
        dst
    }

    /// Emits a store.
    pub fn store(&mut self, b: BlockRef, width: Width, base: VReg, offset: i32, value: VReg) {
        self.push(
            b,
            Inst::Store {
                width,
                base,
                offset,
                value,
            },
        );
    }

    /// Emits a float load.
    pub fn fload(&mut self, b: BlockRef, base: VReg, offset: i32) -> VReg {
        let dst = self.new_vreg(RegClass::Float);
        self.push(b, Inst::FLoad { dst, base, offset });
        dst
    }

    /// Emits a float store.
    pub fn fstore(&mut self, b: BlockRef, base: VReg, offset: i32, value: VReg) {
        self.push(
            b,
            Inst::FStore {
                base,
                offset,
                value,
            },
        );
    }

    /// Emits a call.
    pub fn call(
        &mut self,
        b: BlockRef,
        func: FuncId,
        args: Vec<VReg>,
        ret_class: Option<RegClass>,
    ) -> Option<VReg> {
        let ret = ret_class.map(|c| self.new_vreg(c));
        self.push(b, Inst::Call { func, args, ret });
        ret
    }

    /// Emits int→float conversion.
    pub fn cvt_if(&mut self, b: BlockRef, a: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Float);
        self.push(b, Inst::CvtIF { dst, a });
        dst
    }

    /// Emits float→int conversion.
    pub fn cvt_fi(&mut self, b: BlockRef, a: VReg) -> VReg {
        let dst = self.new_vreg(RegClass::Int);
        self.push(b, Inst::CvtFI { dst, a });
        dst
    }

    /// Finishes construction.
    pub fn finish(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Cond;

    #[test]
    fn builder_produces_valid_function() {
        let mut b = FunctionBuilder::new("max3", 2, Some(RegClass::Int));
        let entry = b.entry();
        let (x, y) = (b.param(0), b.param(1));
        let p = b.icmp(entry, Cond::Gt, x, y);
        let bb_then = b.new_block();
        let bb_else = b.new_block();
        b.set_term(
            entry,
            Terminator::CondBr {
                pred: p,
                then_bb: bb_then,
                else_bb: bb_else,
            },
        );
        b.set_term(bb_then, Terminator::Ret(Some(x)));
        b.set_term(bb_else, Terminator::Ret(Some(y)));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.class_of(p), RegClass::Pred);
        let mut m = Module::new();
        m.add_func(f);
        m.verify().expect("valid module");
    }

    #[test]
    fn module_lookup_by_name() {
        let mut m = Module::new();
        let f = FunctionBuilder::new("foo", 0, None).finish();
        let id = m.add_func(f);
        assert_eq!(m.func_by_name("foo").map(|(i, _)| i), Some(id));
        assert!(m.func_by_name("bar").is_none());
    }

    #[test]
    fn globals_registered_in_order() {
        let mut m = Module::new();
        let a = m.add_global(Global {
            name: "a".into(),
            size: 16,
            init: vec![],
        });
        let b = m.add_global(Global {
            name: "b".into(),
            size: 4,
            init: vec![1, 2, 3, 4],
        });
        assert_eq!(a, GlobalId(0));
        assert_eq!(b, GlobalId(1));
        assert_eq!(m.globals().len(), 2);
    }

    #[test]
    fn float_param_retype() {
        let mut b = FunctionBuilder::new("fp", 2, Some(RegClass::Float));
        b.new_float_params(&[1]);
        let f = b.finish();
        assert_eq!(f.class_of(VReg(0)), RegClass::Int);
        assert_eq!(f.class_of(VReg(1)), RegClass::Float);
    }
}
