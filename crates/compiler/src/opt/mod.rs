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

use crate::driver::timed;
use std::time::Duration;
use tinker_ir::Module;

/// Wall time of each optimizer pass, summed over rounds and functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTimes {
    /// [`constfold`].
    pub constfold: Duration,
    /// [`cse`].
    pub cse: Duration,
    /// [`copyprop`].
    pub copyprop: Duration,
    /// [`simplify`].
    pub simplify: Duration,
    /// [`dce`].
    pub dce: Duration,
}

impl PassTimes {
    /// Every pass as `(name, time)`, in pipeline order.
    pub fn passes(&self) -> [(&'static str, Duration); 5] {
        [
            ("constfold", self.constfold),
            ("cse", self.cse),
            ("copyprop", self.copyprop),
            ("simplify", self.simplify),
            ("dce", self.dce),
        ]
    }
}

/// Runs the full pass pipeline (fold → CSE → copy-prop → simplify → DCE)
/// up to `max_iter` times or until a round changes nothing.
///
/// No pass undoes another's work, so the rounds reach a round that
/// changes nothing instead of cycling through the budget: `constfold`
/// leaves a copy of a constant as a copy (CSE would turn its folded form
/// back into one), and CSE leaves copies to copy propagation (which
/// would turn a copy of a copy back).
///
/// Returns the number of iterations that made progress.
pub fn optimize_module(m: &mut Module, max_iter: usize) -> usize {
    optimize_module_timed(m, max_iter, &mut PassTimes::default())
}

/// [`optimize_module`], adding each pass's wall time to `times`.
pub fn optimize_module_timed(m: &mut Module, max_iter: usize, times: &mut PassTimes) -> usize {
    let mut iterations = 0;
    for _ in 0..max_iter {
        let mut changed = false;
        for f in m.funcs_mut() {
            changed |= timed(&mut times.constfold, || constfold::run(f));
            changed |= timed(&mut times.cse, || cse::run(f));
            changed |= timed(&mut times.copyprop, || copyprop::run(f));
            changed |= timed(&mut times.simplify, || simplify::run(f));
            changed |= timed(&mut times.dce, || dce::run(f));
        }
        if !changed {
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
