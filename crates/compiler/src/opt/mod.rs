//! IR optimization passes, iterated to a fixed point by
//! [`optimize_module`].
//!
//! All passes are conservative with respect to the non-SSA IR: value
//! tracking is block-local (a virtual register may be redefined on other
//! paths), while dead-code elimination uses a global liveness fixpoint.

pub mod constfold;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod simplify;
pub mod taildup;

use tinker_ir::Module;

/// Runs the full pass pipeline (fold → CSE → copy-prop → simplify → DCE)
/// up to `max_iter` times or until a round leaves the module as it was.
///
/// A round can report changes and still end where it began: `constfold`
/// turns `v = mov w` into `v = iconst c` and `cse` folds it back. The
/// passes are deterministic, so every later round would repeat it; the
/// module is compared with its snapshot from before the round, and the
/// loop stops at that fixpoint with the bytes a full budget would give.
///
/// Returns the number of iterations that made progress.
pub fn optimize_module(m: &mut Module, max_iter: usize) -> usize {
    let mut iterations = 0;
    for _ in 0..max_iter {
        let before = m.clone();
        let mut changed = false;
        for f in m.funcs_mut() {
            changed |= constfold::run(f);
            changed |= cse::run(f);
            changed |= copyprop::run(f);
            changed |= simplify::run(f);
            changed |= dce::run(f);
        }
        if !changed || *m == before {
            break;
        }
        iterations += 1;
    }
    debug_assert!(m.verify().is_ok(), "optimizer broke the module");
    iterations
}

#[cfg(test)]
mod tests {
    use crate::lang::{lower_program, parser::parse};

    #[test]
    fn pipeline_reaches_fixed_point_and_verifies() {
        let mut m = lower_program(
            &parse(
                r#"
            global a[8];
            fn main() {
                var x = 2 + 3;
                var y = x * 4;
                var dead = 17;
                if (1 < 2) { a[0] = y; } else { a[1] = 0; }
                print(a[0]);
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap();
        let before: usize = m.funcs()[0].blocks.iter().map(|b| b.insts.len()).sum();
        super::optimize_module(&mut m, 10);
        m.verify().unwrap();
        let after: usize = m.funcs()[0].blocks.iter().map(|b| b.insts.len()).sum();
        assert!(
            after < before,
            "optimizer should shrink the function ({before} -> {after})"
        );
    }

    /// A paper program reaches its fixpoint well inside the default
    /// budget, and a second run finds nothing left to do.
    #[test]
    fn a_paper_program_stops_at_its_fixpoint() {
        let src = include_str!("../../../workloads/src/programs/li.tink");
        let mut m = lower_program(&parse(src).unwrap()).unwrap();
        let budget = crate::Options::default().opt_iters;
        let iters = super::optimize_module(&mut m, budget);
        assert!(iters < budget, "li ran all {budget} rounds");
        let fixed = m.clone();
        assert_eq!(super::optimize_module(&mut m, budget), 0);
        assert_eq!(m, fixed);
    }
}
