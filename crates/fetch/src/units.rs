//! Complex fetch units — the paper's last future-work item ("usage of
//! complex blocks as fetch units", §7; §3.1 sketches superblocks/traces
//! as candidate units "formed at compilation with the use of profile
//! information").
//!
//! A *fetch unit* is a maximal chain of layout-sequential basic blocks
//! where the profile says each block overwhelmingly falls through to the
//! next, and the next is rarely entered from anywhere else (the paper's
//! "side entrances … not taken frequently" condition). The ATB then
//! works at unit granularity: one translation + one prediction per unit
//! instead of per block — fewer prediction points and longer streaming
//! runs, paid for by over-fetch when the trace leaves a unit early.
//! The one fetch loop walks units when they are passed as
//! [`crate::Probes::units`].

use tepic_isa::Program;
use yula::BlockTrace;

/// The block→unit partition.
#[derive(Debug, Clone)]
pub struct FetchUnits {
    /// Unit id of each block.
    unit_of: Vec<u32>,
    /// First block of each unit (units cover contiguous block ranges).
    first_block: Vec<u32>,
    /// Block count of each unit.
    len: Vec<u32>,
}

impl FetchUnits {
    /// Forms units from a profile (the dynamic trace): block `b` chains
    /// to `b+1` when at least `theta` of b's executions fall through AND
    /// at least `theta` of `b+1`'s entries come from `b`.
    pub fn form(program: &Program, trace: &BlockTrace, theta: f64) -> FetchUnits {
        let n = program.num_blocks();
        let mut execs = vec![0u64; n];
        let mut fallthrough = vec![0u64; n];
        let mut entries = vec![0u64; n];
        let mut entries_from_prev = vec![0u64; n];
        for (cur, next) in trace.transitions() {
            execs[cur as usize] += 1;
            if let Some(nx) = next {
                entries[nx as usize] += 1;
                if nx == cur + 1 {
                    fallthrough[cur as usize] += 1;
                    entries_from_prev[nx as usize] += 1;
                }
            }
        }
        let mut unit_of = vec![0u32; n];
        let mut first_block = Vec::new();
        let mut len = Vec::new();
        let mut b = 0usize;
        while b < n {
            let unit = first_block.len() as u32;
            first_block.push(b as u32);
            let mut count = 1u32;
            while b + (count as usize) < n {
                let cur = b + count as usize - 1;
                let nxt = cur + 1;
                let chain = execs[cur] > 0
                    && fallthrough[cur] as f64 >= theta * execs[cur] as f64
                    && entries[nxt] > 0
                    && entries_from_prev[nxt] as f64 >= theta * entries[nxt] as f64
                    && program.blocks()[cur].func == program.blocks()[nxt].func;
                if !chain {
                    break;
                }
                count += 1;
            }
            for k in 0..count {
                unit_of[b + k as usize] = unit;
            }
            len.push(count);
            b += count as usize;
        }
        FetchUnits {
            unit_of,
            first_block,
            len,
        }
    }

    /// Unit id of a block.
    pub fn unit_of(&self, block: u32) -> u32 {
        self.unit_of[block as usize]
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.first_block.len()
    }

    /// `(first_block, num_blocks)` of a unit.
    pub fn unit(&self, u: u32) -> (u32, u32) {
        (self.first_block[u as usize], self.len[u as usize])
    }

    /// Mean blocks per unit.
    pub fn avg_len(&self) -> f64 {
        if self.len.is_empty() {
            return 0.0;
        }
        self.len.iter().map(|&l| l as f64).sum::<f64>() / self.len.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_with, DecodeStats, FetchConfig, FetchResult, Probes};
    use ccc_core::schemes::{by_name, SchemeOutput};
    use ccc_telemetry::RingSink;
    use yula::{Emulator, Limits};

    fn setup(src: &str) -> (Program, BlockTrace) {
        let p = lego::compile(src, &lego::Options::default()).unwrap();
        let run = Emulator::new(&p).run(&Limits::default()).unwrap();
        (p, run.trace)
    }

    /// One run per fetch class, each on an image of its own encoding
    /// (Base also under Ideal).
    fn class_runs(p: &Program) -> Vec<(SchemeOutput, FetchConfig)> {
        [
            ("base", FetchConfig::base()),
            ("tailored", FetchConfig::tailored()),
            ("full", FetchConfig::compressed()),
            ("base", FetchConfig::ideal()),
        ]
        .into_iter()
        .map(|(scheme, cfg)| (by_name(scheme).unwrap().compress(p).unwrap(), cfg))
        .collect()
    }

    /// A run over `units` (or blocks), with the codec its class decodes
    /// on hit.
    fn run<'a>(
        p: &Program,
        trace: &BlockTrace,
        (out, cfg): &'a (SchemeOutput, FetchConfig),
        units: Option<&'a FetchUnits>,
        sink: Option<&'a mut dyn ccc_telemetry::TraceSink>,
    ) -> (FetchResult, DecodeStats) {
        let probes = Probes {
            codec: cfg.class.decodes_on_hit().then_some(out.codec.as_ref()),
            units,
            sink,
            ..Probes::default()
        };
        simulate_with(p, &out.image, trace, cfg, probes)
    }

    #[test]
    fn units_partition_all_blocks() {
        let (p, trace) = setup(
            "fn main() { var i; var s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } print(s); }",
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        let mut covered = 0u32;
        for u in 0..units.num_units() as u32 {
            let (first, len) = units.unit(u);
            for b in first..first + len {
                assert_eq!(units.unit_of(b), u);
                covered += 1;
            }
        }
        assert_eq!(covered as usize, p.num_blocks());
        assert!(units.avg_len() >= 1.0);
    }

    #[test]
    fn straightline_code_forms_long_units() {
        let (p, trace) = setup(
            r#"
            global a[16];
            fn main() {
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                a[4] = a[0] + a[1]; a[5] = a[2] * a[3];
                print(a[4] + a[5]);
            }
        "#,
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        // Straight-line main: strictly fewer units than blocks whenever
        // there are multiple blocks.
        if p.num_blocks() > 2 {
            assert!(units.num_units() < p.num_blocks());
        }
    }

    #[test]
    fn unit_simulation_conserves_ops_and_bounds_ipc() {
        let (p, trace) = setup(
            r#"
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 200; i = i + 1) {
                    s = s + i;
                    if (s > 1000) { s = s - 1000; }
                }
                print(s);
            }
        "#,
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        let base = &class_runs(&p)[0];
        let (unit_r, _) = run(&p, &trace, base, Some(&units), None);
        let block_r = simulate(&p, &base.0.image, &trace, &base.1);
        assert_eq!(unit_r.ops, block_r.ops, "same instruction stream");
        assert!(unit_r.ipc() <= 6.0 + 1e-9);
        // Fewer prediction points at unit granularity.
        assert!(
            unit_r.pred_correct + unit_r.pred_wrong <= block_r.pred_correct + block_r.pred_wrong
        );
    }

    #[test]
    fn theta_one_degenerates_to_blocks() {
        let (p, trace) = setup("fn main() { var i; for (i = 0; i < 20; i = i + 1) { print(i); } }");
        // theta > 1 can never chain, so every block is its own unit and
        // the unit walk must reproduce the block walk exactly, in every
        // class, decode work included.
        let units = FetchUnits::form(&p, &trace, 1.1);
        assert_eq!(units.num_units(), p.num_blocks());
        for class_run in &class_runs(&p) {
            let by_block = run(&p, &trace, class_run, None, None);
            let by_unit = run(&p, &trace, class_run, Some(&units), None);
            assert_eq!(by_unit, by_block, "{:?}", class_run.1.class);
            let decodes = class_run.1.class.decodes_on_hit();
            assert_eq!(by_unit.1.blocks_decoded > 0, decodes);
        }
    }

    #[test]
    fn traced_unit_runs_reconcile_and_check_parity_per_block() {
        let (p, trace) = setup(
            r#"
            global a[16];
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 100; i = i + 1) {
                    a[i % 16] = s; s = s + a[(i + 3) % 16] + i;
                    if (i % 7 == 0) { s = s - 5; }
                    print(s);
                }
            }
        "#,
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        assert!(
            units.num_units() < p.num_blocks(),
            "needs multi-block units"
        );
        for class_run in &class_runs(&p) {
            let class = class_run.1.class;
            let plain = run(&p, &trace, class_run, Some(&units), None);
            // The loop asserts that the traced event counts reconcile
            // with its counters; tracing must not steer.
            let mut ring = RingSink::new(1 << 22);
            let traced = run(&p, &trace, class_run, Some(&units), Some(&mut ring));
            assert_eq!(traced, plain, "{class:?}");
            // Each block of a multi-block fetch is checked against its
            // own ATT entry, so a clean image raises no fault.
            assert_eq!(plain.0.integrity_faults, 0, "{class:?}");
            assert_eq!(plain.1.decode_errors, 0, "{class:?}");
        }
    }
}
