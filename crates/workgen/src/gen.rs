//! The generator proper: deficit-steered, halting-by-construction
//! Tink emission.
//!
//! The central loop scores a menu of statement templates against the
//! current op-mix *deficit* (target fraction minus estimated emitted
//! fraction, per category) and emits the best-scoring one, so the
//! program converges on the target profile as it grows instead of
//! sampling from a fixed distribution and hoping. Estimates use a
//! per-template signature of post-compilation op counts, tuned against
//! `yula::opmix` measurements of actual generated corpora.
//!
//! Termination is structural, not statistical: loops are `for` with
//! constant trip counts, calls go strictly to lower-indexed helpers
//! (a DAG) and only from loop-free call sites, and each helper's
//! estimated dynamic cost is capped, so the whole program's step count
//! is bounded at emission time.
//!
//! Compile-safety rules baked into every template: all expressions are
//! fully parenthesized (Tink's `&` binds *looser* than `<`), array
//! indices are masked with the array's power-of-two length minus one,
//! there is no `/` or `%` anywhere (runtime divisors can trap), and
//! all arithmetic stays in wrapping i32 / bounded f32 range.

use crate::{GenParams, GenProgram};

const N_CAT: usize = 7;

/// Per-template signatures: estimated compiled op counts by category
/// (ialu, cmp, float, load, store, ctrl, sys). These are the steering
/// model, not ground truth — the calibration report measures reality.
const SIG_ALU: [f64; N_CAT] = [11.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
const SIG_LOAD: [f64; N_CAT] = [8.5, 0.0, 0.0, 3.2, 0.2, 0.0, 0.0];
/// Loop-var indexed loads: unmasked addressing, two loads per statement.
const SIG_LOADV: [f64; N_CAT] = [8.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0];
const SIG_STORE: [f64; N_CAT] = [5.5, 0.0, 0.0, 0.3, 2.8, 0.0, 0.0];
const SIG_STOREV: [f64; N_CAT] = [7.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0];
const SIG_FLOAT: [f64; N_CAT] = [13.0, 0.0, 3.5, 0.3, 0.3, 0.0, 0.0];
const SIG_SYS: [f64; N_CAT] = [7.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
const SIG_IF: [f64; N_CAT] = [14.0, 1.0, 0.0, 0.0, 0.0, 2.5, 0.0];
const SIG_LOOP: [f64; N_CAT] = [17.0, 1.0, 0.0, 0.5, 0.5, 4.0, 0.0];
/// Micro-branch signatures carry the full measured cost of header +
/// body (tplprobe): the alu variant is by far the densest control
/// source (3 ctrl in ~8 ops); the mem variants pay a phi/address tax.
const SIG_MICRO: [f64; N_CAT] = [8.5, 1.0, 0.0, 0.1, 0.1, 3.0, 0.0];
const SIG_MB_ALU: [f64; N_CAT] = [8.0, 1.0, 0.0, 0.0, 0.0, 3.0, 0.0];
const SIG_MB_LOAD: [f64; N_CAT] = [18.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
const SIG_MB_STORE: [f64; N_CAT] = [18.8, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0];
const SIG_CALL: [f64; N_CAT] = [9.0, 0.0, 0.0, 2.0, 1.0, 1.2, 0.0];
const SIG_RET: [f64; N_CAT] = [3.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0];
/// Hidden-cost model: every emitted statement drags extra integer ops
/// the templates cannot see — phi copies at joins, address and constant
/// materialization, call glue. Measured corpus-wide as (actual static
/// ops) / (charged ops) - 1, attributed entirely to `ialu`.
const HIDDEN_IALU_RATE: f64 = 0.22;
const SIG_PROLOGUE: [f64; N_CAT] = [10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0];

/// Per-category urgency weights for the steering score. IntAlu is
/// structurally over-supplied by every template (the compiler's mov
/// and immediate-materialization tax lands there), so its inevitable
/// surplus is damped; control and memory density are the categories
/// only specific templates can supply, so their deficits shout.
const STEER_WEIGHT: [f64; N_CAT] = [0.5, 1.2, 1.0, 4.2, 3.4, 4.5, 1.5];

fn mass(sig: &[f64; N_CAT]) -> f64 {
    sig.iter().sum()
}

/// Cap on one helper's estimated dynamic cost (ops per invocation).
/// Keeps call-DAG fan-out from compounding into runaway step counts.
const HELPER_DYN_CAP: f64 = 20_000.0;

/// xorshift64* — the program-body RNG. Distinct from the corpus-level
/// SplitMix64 so per-program streams are independent of corpus layout.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi);
        lo + (self.next() % (hi - lo + 1) as u64) as u32
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A small varied literal — the constants that keep CSE from
    /// merging structurally identical templates.
    fn konst(&mut self) -> u32 {
        self.range(3, 251)
    }
}

/// Global deficit tracker: target fractions vs estimated emitted ops.
struct Steer {
    target: [f64; N_CAT],
    est: [f64; N_CAT],
}

impl Steer {
    fn new(target: [f64; N_CAT]) -> Steer {
        Steer {
            target,
            est: [0.0; N_CAT],
        }
    }

    fn charge(&mut self, sig: &[f64; N_CAT]) {
        for (e, s) in self.est.iter_mut().zip(sig) {
            *e += s;
        }
    }

    /// Dot of the template's normalized signature with the per-category
    /// deficit: positive when the template supplies what's short.
    fn score(&self, sig: &[f64; N_CAT]) -> f64 {
        let total: f64 = self.est.iter().sum::<f64>().max(1.0);
        let m = mass(sig);
        let mut sc = 0.0;
        for i in 0..N_CAT {
            sc += sig[i] / m * STEER_WEIGHT[i] * (self.target[i] - self.est[i] / total);
        }
        sc
    }
}

/// One function body under construction.
struct Body {
    text: String,
    /// Static ops charged to this function so far.
    spent: f64,
    /// Estimated dynamic ops for one invocation.
    dyn_cost: f64,
    /// Product of enclosing loop trip counts at the emission point.
    mult: f64,
    loop_depth: u32,
    /// Enclosing loop variables with their (exclusive) trip bounds —
    /// indexing `gw0[(v + k)]` needs no mask when `bound + k` fits.
    loop_vars: Vec<(String, u32)>,
}

impl Body {
    fn line(&mut self, indent: usize, s: &str) {
        for _ in 0..indent {
            self.text.push_str("    ");
        }
        self.text.push_str(s);
        self.text.push('\n');
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Alu,
    Load,
    Store,
    Float,
    If,
    Loop,
    Micro,
}

struct Gen<'p> {
    rng: Rng,
    steer: Steer,
    params: &'p GenParams,
    /// Program-unique counter for loop variable names.
    var_ctr: u32,
}

/// Generates one program from its seed. Pure: same `(seed, params,
/// name)` ⇒ byte-identical source.
///
/// Generation is closed-loop: the statement templates steer toward the
/// target mix, but the compiler adds costs no template model can see —
/// phi copies at joins, caller-save spills, address materialization —
/// and those scale with context (live variables), not with the
/// statement. So after emitting a draft we compile it, measure the
/// actual category mix, fold the residual back into the steering
/// target, and regenerate from the same seed. Three correction rounds
/// (integral control with unit gain) land the mix within a couple of
/// points of what the template menu can express. Compilation is
/// deterministic, so reproducibility is unaffected.
pub fn generate_program(seed: u64, params: &GenParams, name: &str) -> GenProgram {
    let mut tuned = params.clone();
    let mut source = emit(seed, &tuned, name);
    for _ in 0..3 {
        let Ok(p) = lego::compile(&source, &lego::Options::default()) else {
            break;
        };
        let measured = crate::calibrate::MixProfile::from_programs([&p]).fractions;
        let maxd = (0..N_CAT)
            .map(|i| (measured[i] - params.target[i]).abs())
            .fold(0.0f64, f64::max);
        if maxd <= 0.035 {
            break;
        }
        let mut sum = 0.0;
        for (i, t) in tuned.target.iter_mut().enumerate() {
            *t = (*t + (params.target[i] - measured[i])).max(0.001);
            sum += *t;
        }
        for v in &mut tuned.target {
            *v /= sum;
        }
        source = emit(seed, &tuned, name);
    }
    GenProgram {
        name: name.to_string(),
        seed,
        source,
    }
}

/// One open-loop emission pass.
fn emit(seed: u64, params: &GenParams, name: &str) -> String {
    let mut g = Gen {
        rng: Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        steer: Steer::new(params.target),
        params,
        var_ctr: 0,
    };
    g.program(seed, name)
}

impl Gen<'_> {
    fn program(&mut self, seed: u64, name: &str) -> String {
        let n_funcs = self.rng.range(
            self.params.funcs.0,
            self.params.funcs.1.max(self.params.funcs.0),
        ) as usize;
        let budget = self
            .rng
            .range(self.params.ops_budget.0, self.params.ops_budget.1) as f64;
        // Main's fixed machinery (init loop, driver loop, once-calls)
        // takes a slice off the top; helpers split the rest.
        let helper_budget = budget * 0.80 / n_funcs as f64;

        let mut src = String::with_capacity(8 * 1024);
        src.push_str(&format!(
            "// {name}: synthetic workload, seed {seed:#018x}\n\
             // generated by ccc-workgen; do not edit by hand\n\
             global gw0[256];\n\
             global gw1[512];\n\
             bglobal gb0[256];\n\
             fglobal gf0[64];\n\n"
        ));

        // The lowest-indexed functions are leaf predicates: tiny
        // guard-return functions with no body budget. Real code is full
        // of them (accessors, comparisons, clamps) and they are the
        // densest control-op source the generator has — a call, a
        // branch or two, and multiple returns in under twenty ops.
        let n_pred = 1 + n_funcs / 3;
        let mut dyn_costs: Vec<f64> = Vec::with_capacity(n_pred + n_funcs);
        for idx in 0..n_pred {
            let (text, cost) = self.predicate(idx);
            dyn_costs.push(cost);
            src.push_str(&text);
            src.push('\n');
        }
        for idx in n_pred..n_pred + n_funcs {
            let share = helper_budget * (0.75 + 0.5 * self.rng.unit());
            let (text, cost) = self.helper(idx, n_pred, share, &dyn_costs);
            dyn_costs.push(cost);
            src.push_str(&text);
            src.push('\n');
        }

        src.push_str(&self.main_fn(budget * 0.20, &dyn_costs));
        src
    }

    /// One leaf predicate: a guard chain over the two arguments with an
    /// early return per guard. No steered body, no calls, trivially
    /// bounded dynamic cost.
    fn predicate(&mut self, idx: usize) -> (String, f64) {
        let mut b = Body {
            text: String::new(),
            spent: 0.0,
            dyn_cost: 0.0,
            mult: 1.0,
            loop_depth: 0,
            loop_vars: Vec::new(),
        };
        b.line(0, &format!("fn h{idx}(a, b) {{"));
        let n_guards = self.rng.range(1, 2);
        for _ in 0..n_guards {
            let k = self.rng.konst();
            let (cond, val) = match self.rng.range(0, 3) {
                0 => (format!("((a + {k}) > b)"), format!("((a - b) + {k})")),
                1 => (format!("(b < {k})"), format!("(b + {k})")),
                2 => (format!("((b - {k}) > a)"), format!("(a + {k})")),
                _ => (format!("(a < (b - {k}))"), format!("((b - a) - {k})")),
            };
            b.line(1, &format!("if {cond} {{"));
            b.line(2, &format!("return {val};"));
            b.line(1, "}");
            self.charge(&mut b, &[3.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
            self.charge(&mut b, &SIG_RET);
        }
        let kf = self.rng.konst();
        b.line(1, &format!("return ((a + b) + {kf});"));
        self.charge(&mut b, &SIG_RET);
        b.line(0, "}");
        (b.text, b.dyn_cost.max(12.0))
    }

    /// One helper: `fn h<idx>(a, b) { ... return (s + t); }`.
    /// Calls only helpers with lower indices (termination by DAG).
    fn helper(
        &mut self,
        idx: usize,
        n_pred: usize,
        share: f64,
        dyn_costs: &[f64],
    ) -> (String, f64) {
        let mut b = Body {
            text: String::new(),
            spent: 0.0,
            dyn_cost: 0.0,
            mult: 1.0,
            loop_depth: 0,
            loop_vars: Vec::new(),
        };
        b.line(0, &format!("fn h{idx}(a, b) {{"));
        let (k1, k2) = (self.rng.konst(), self.rng.konst());
        b.line(1, &format!("var s = ((a + {k1}) + gw0[(b & 255)]);"));
        b.line(1, &format!("var t = (b + {k2});"));
        b.line(1, "var x = (s & 255);");
        self.charge(&mut b, &SIG_PROLOGUE);
        if self.rng.range(0, 9) < 6 {
            self.stmt_sys(&mut b, 1);
        }

        // Call sites: loop-free, top-of-body, to lower indices only,
        // and dyn-capped so DAG fan-out stays bounded. Leaf predicates
        // are cheap, so every helper leans on one or two of them; calls
        // into other full helpers stay within the depth window.
        for _ in 0..self.rng.range(1, 2) {
            let j = self.rng.range(0, n_pred as u32 - 1) as usize;
            let kp = self.rng.konst();
            if self.rng.range(0, 1) == 0 {
                b.line(1, &format!("s = (s + h{j}((t + {kp}), s));"));
            } else {
                b.line(1, &format!("t = (t + h{j}(s, (x + {kp})));"));
            }
            self.charge(&mut b, &SIG_CALL);
            b.dyn_cost += dyn_costs[j];
        }
        if idx > n_pred {
            let lo = idx
                .saturating_sub(self.params.max_call_depth as usize)
                .max(n_pred);
            for _ in 0..self.rng.range(0, 2) {
                let j = self.rng.range(lo as u32, idx as u32 - 1) as usize;
                if b.dyn_cost + dyn_costs[j] + 4.0 > HELPER_DYN_CAP {
                    continue;
                }
                if self.rng.range(0, 1) == 0 {
                    b.line(1, &format!("s = (s + h{j}((t + gw1[(s & 511)]), s));"));
                } else {
                    b.line(1, &format!("t = (t + h{j}(s, (t + gb0[(s & 255)])));"));
                }
                self.charge(&mut b, &SIG_CALL);
                b.dyn_cost += dyn_costs[j];
            }
        }

        for _ in 0..self.rng.range(0, 2) {
            let ke = self.rng.konst();
            let cond = match self.rng.range(0, 2) {
                0 => format!("((s - t) > {ke})"),
                1 => format!("(t < {ke})"),
                _ => format!("((t - {ke}) > s)"),
            };
            b.line(1, &format!("if {cond} {{"));
            b.line(2, &format!("return ((s - t) + {ke});"));
            b.line(1, "}");
            self.charge(&mut b, &SIG_IF);
            self.charge(&mut b, &SIG_RET);
        }
        self.emit_block(&mut b, 1, share);
        b.line(1, "return (s + t);");
        self.charge(&mut b, &SIG_RET);
        b.line(0, "}");
        (b.text, b.dyn_cost)
    }

    /// `main`: seed the global arrays, touch every helper once (keeps
    /// the whole DAG live), run a driver loop over a rotating subset,
    /// then print the accumulator (keeps everything else live).
    fn main_fn(&mut self, share: f64, dyn_costs: &[f64]) -> String {
        let mut b = Body {
            text: String::new(),
            spent: 0.0,
            dyn_cost: 0.0,
            mult: 1.0,
            loop_depth: 0,
            loop_vars: Vec::new(),
        };
        b.line(0, "fn main() {");
        b.line(1, &format!("var s = {};", self.rng.konst()));
        b.line(1, &format!("var t = {};", self.rng.konst()));
        b.line(1, "var acc = 0;");
        b.line(1, "var x = (s & 255);");
        self.charge(&mut b, &[5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);

        // Array-seeding loop: every later load reads varied data.
        let (ka, kb, kc) = (self.rng.konst(), self.rng.konst(), self.rng.konst() | 1);
        b.line(1, "var i;");
        b.line(1, "for (i = 0; i < 256; i = (i + 1)) {");
        b.line(2, &format!("gw0[(i & 255)] = ((i * 37) + {ka});"));
        b.line(2, &format!("gw1[(i & 511)] = ((i ^ {kb}) * 5);"));
        b.line(2, &format!("gw1[((i + 256) & 511)] = ((i * {kc}) ^ i);"));
        b.line(2, "gb0[(i & 255)] = (i & 255);");
        b.line(2, "gf0[(i & 63)] = float((i & 63));");
        b.line(1, "}");
        self.charge(&mut b, &[16.0, 1.0, 1.0, 0.0, 5.0, 2.0, 0.0]);
        b.dyn_cost += 256.0 * 22.0;

        // Touch every helper once so none is dead code.
        for (k, &cost) in dyn_costs.iter().enumerate() {
            let kk = self.rng.konst();
            b.line(1, &format!("acc = (acc + h{k}((acc + {kk}), (s + {k})));"));
            self.charge(&mut b, &SIG_CALL);
            b.dyn_cost += cost;
        }

        self.stmt_sys(&mut b, 1);

        // Driver loop: trip count sized so the whole program lands in
        // the target dynamic-op window.
        let subset: Vec<usize> = {
            let n = dyn_costs.len();
            let take = n.min(3);
            (0..take).map(|i| n - 1 - i).collect()
        };
        let per_iter: f64 = subset.iter().map(|&k| dyn_costs[k] + 5.0).sum::<f64>() + 10.0;
        let target_dyn = self.rng.range(60_000, 240_000) as f64;
        let want = ((target_dyn - b.dyn_cost) / per_iter).max(2.0) as u32;
        let trip = want.clamp(self.params.main_trip.0, self.params.main_trip.1);
        b.line(1, "var j;");
        b.line(1, &format!("for (j = 0; j < {trip}; j = (j + 1)) {{"));
        for &k in &subset {
            let kk = self.rng.konst();
            b.line(2, &format!("acc = (acc + h{k}((j + {kk}), (acc + {k})));"));
        }
        b.line(2, "s = (s + (acc >> 3));");
        b.line(1, "}");
        self.charge(&mut b, &SIG_LOOP);
        for _ in &subset {
            self.charge(&mut b, &SIG_CALL);
        }
        b.dyn_cost += trip as f64 * per_iter;

        // Steered filler at main's top level (the only place Sys
        // templates are legal — they run once, keeping the dynamic
        // sys share near the measured ~0%).
        self.emit_block(&mut b, 1, share);

        b.line(1, "print(((acc ^ s) + t));");
        self.charge(&mut b, &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        b.line(0, "}");
        b.text
    }

    fn charge(&mut self, b: &mut Body, sig: &[f64; N_CAT]) {
        let m = mass(sig);
        let hidden = HIDDEN_IALU_RATE * m;
        self.steer.charge(sig);
        self.steer.est[0] += hidden;
        b.spent += m + hidden;
        b.dyn_cost += (m + hidden) * b.mult;
    }

    /// Emits steered statements until `budget` static ops are spent.
    fn emit_block(&mut self, b: &mut Body, indent: usize, budget: f64) {
        let stop = b.spent + budget;
        while b.spent < stop {
            let remaining = stop - b.spent;
            let kind = self.pick_kind(b, remaining);
            match kind {
                Kind::Alu => self.stmt_alu(b, indent),
                Kind::Load => self.stmt_load(b, indent),
                Kind::Store => self.stmt_store(b, indent),
                Kind::Float => self.stmt_float(b, indent),
                Kind::If => self.stmt_if(b, indent, remaining),
                Kind::Loop => self.stmt_loop(b, indent, remaining),
                Kind::Micro => self.stmt_micro(b, indent),
            }
        }
    }

    fn pick_kind(&mut self, b: &Body, remaining: f64) -> Kind {
        let mut best = Kind::Alu;
        let mut best_score = f64::NEG_INFINITY;
        let structured_ok = remaining >= 16.0;
        let loop_ok = structured_ok
            && b.loop_depth < self.params.max_loop_nest
            && b.dyn_cost + b.mult * 200.0 < HELPER_DYN_CAP * 4.0;
        // Inside a loop, memory templates index by the loop variable —
        // cheaper and more idiomatic — so bias toward them there.
        let in_loop = !b.loop_vars.is_empty();
        let mem_bias = if in_loop { 1.5 } else { 1.0 };
        let load_sig = if in_loop { &SIG_LOADV } else { &SIG_LOAD };
        let store_sig = if in_loop { &SIG_STOREV } else { &SIG_STORE };
        let menu: [(Kind, &[f64; N_CAT], f64, bool); 7] = [
            (Kind::Alu, &SIG_ALU, 1.0, true),
            (Kind::Load, load_sig, mem_bias, true),
            (Kind::Store, store_sig, mem_bias, true),
            (Kind::Float, &SIG_FLOAT, 1.0, true),
            (Kind::If, &SIG_IF, self.params.branchiness, structured_ok),
            (Kind::Loop, &SIG_LOOP, self.params.loopiness, loop_ok),
            (
                Kind::Micro,
                &SIG_MICRO,
                self.params.branchiness,
                remaining >= 6.0,
            ),
        ];
        for (kind, sig, weight, ok) in menu {
            if !ok {
                continue;
            }
            let sc = self.steer.score(sig) * weight + 0.012 * self.rng.unit();
            if sc > best_score {
                best_score = sc;
                best = kind;
            }
        }
        best
    }

    fn stmt_alu(&mut self, b: &mut Body, indent: usize) {
        let k1 = self.rng.konst();
        let line = match self.rng.range(0, 5) {
            0 => format!("s = ((s + t) - {k1});"),
            1 => format!("t = ((t + {k1}) + s);"),
            2 => format!(
                "s = (((s * {}) + t) - {k1});",
                (self.rng.range(1, 15) << 1) + 1
            ),
            3 => format!("t = (t - (s + {k1}));"),
            4 => format!("s = ((s + t) + {k1});"),
            _ => format!("t = ((t + (s << {})) - {k1});", self.rng.range(1, 5)),
        };
        b.line(indent, &line);
        self.charge(b, &SIG_ALU);
    }

    fn stmt_load(&mut self, b: &mut Body, indent: usize) {
        let (line, sig): (String, &[f64; N_CAT]) =
            if let Some((v, bound)) = b.loop_vars.last().cloned() {
                let k = self.rng.range(0, 255 - bound.min(255));
                let line = match self.rng.range(0, 2) {
                    0 => format!("t = ((t + gw0[({v} + {k})]) + (gb0[{v}] + gw1[{v}]));"),
                    1 => format!("s = ((s + gw1[({v} + {k})]) + (gw0[{v}] - gb0[{v}]));"),
                    _ => format!("t = ((t + gw0[({v} + {k})]) + (gw1[{v}] + gw0[{v}]));"),
                };
                (line, &SIG_LOADV)
            } else {
                let k = self.rng.range(3, 250);
                let line = match self.rng.range(0, 3) {
                    0 => format!("t = (t + (gw0[x] + gw1[(x + {k})]));"),
                    1 => format!("s = ((s + gb0[x]) + (gw0[x] + gw1[(x + {k})]));"),
                    2 => "x = ((x + t) & 255); t = (t + (gw0[x] + gb0[x]));".to_string(),
                    _ => format!("t = ((t + gw0[x]) + (gw1[(x + {k})] - gb0[x]));"),
                };
                (line, &SIG_LOAD)
            };
        b.line(indent, &line);
        self.charge(b, sig);
    }

    fn stmt_store(&mut self, b: &mut Body, indent: usize) {
        let (line, sig): (String, &[f64; N_CAT]) =
            if let Some((v, bound)) = b.loop_vars.last().cloned() {
                let k = self.rng.range(0, 255 - bound.min(255));
                let line = match self.rng.range(0, 1) {
                    0 => format!("gw1[({v} + {k})] = (s + t); gb0[{v}] = (t & 255); gw0[{v}] = s;"),
                    _ => format!("gw0[({v} + {k})] = t; gw1[{v}] = s; gb0[{v}] = (s & 255);"),
                };
                (line, &SIG_STOREV)
            } else {
                let k1 = self.rng.range(3, 250);
                let line = match self.rng.range(0, 2) {
                    0 => format!("gw0[x] = t; gw1[(x + {k1})] = s; gb0[x] = (t & 255);"),
                    1 => format!("gw1[(x + {k1})] = (gw0[x] + {k1}); gw0[x] = s; gw1[x] = t;"),
                    _ => format!("x = ((x + s) & 255); gw0[x] = s; gw1[(x + {k1})] = t;"),
                };
                (line, &SIG_STORE)
            };
        b.line(indent, &line);
        self.charge(b, sig);
    }

    fn stmt_float(&mut self, b: &mut Body, indent: usize) {
        let k = self.rng.konst();
        let line = match self.rng.range(0, 2) {
            0 => format!("s = (s + int((float((s & 31)) + float(((t + {k}) & 15)))));"),
            1 => "gf0[(s & 63)] = (gf0[(t & 63)] + 1.5);".to_string(),
            _ => format!("t = (t + int((gf0[((s + {k}) & 63)] + 1.5)));"),
        };
        b.line(indent, &line);
        self.charge(b, &SIG_FLOAT);
    }

    fn stmt_sys(&mut self, b: &mut Body, indent: usize) {
        b.line(
            indent,
            &format!("putc((65 + (s & {})));", self.rng.range(7, 25)),
        );
        self.charge(b, &SIG_SYS);
    }

    fn stmt_if(&mut self, b: &mut Body, indent: usize, remaining: f64) {
        let k2 = self.rng.konst();
        let cond = match self.rng.range(0, 4) {
            0 => "(s < t)".to_string(),
            1 => format!("((s + {k2}) > t)"),
            2 => format!("(t < {k2})"),
            3 => format!("((t - {k2}) > s)"),
            _ => format!(
                "((s & {}) < {})",
                self.rng.range(3, 63),
                self.rng.range(2, 48)
            ),
        };
        b.line(indent, &format!("if {cond} {{"));
        self.charge(b, &SIG_IF);
        // Small fixed-size bodies: real code is branch-dense (one
        // branch per ~15 ops in the hand-written suite), so control
        // headers must come frequently, not wrap huge regions.
        let body = (5.0 + 6.0 * self.rng.unit()).min(remaining.max(5.0));
        self.emit_block(b, indent + 1, body);
        if self.rng.range(0, 1) == 0 {
            b.line(indent, "} else {");
            let els = 5.0 + 4.0 * self.rng.unit();
            self.emit_block(b, indent + 1, els);
        }
        b.line(indent, "}");
    }

    /// A micro-branch: one-line `if` with a cheap un-masked compare and a
    /// single-statement body. Real code is branch-dense (one control op
    /// per ~15 total), and big `if` regions dilute that — these supply
    /// control density without dragging a whole block behind them. The
    /// body statement is itself deficit-steered between alu/load/store
    /// so a micro-branch can pay down two categories at once.
    /// A micro-branch: one-line `if` with a cheap un-masked compare and a
    /// single-statement body. Real code is branch-dense (one control op
    /// per ~15 total), and big `if` regions dilute that — these supply
    /// control density without dragging a whole block behind them. The
    /// body statement is itself deficit-steered between alu/load/store
    /// so a micro-branch can pay down two categories at once.
    fn stmt_micro(&mut self, b: &mut Body, indent: usize) {
        let k = self.rng.konst();
        let cond = match self.rng.range(0, 3) {
            0 => "(s < t)".to_string(),
            1 => format!("((s + {k}) > t)"),
            2 => format!("(t < {k})"),
            _ => format!("((t + {k}) > s)"),
        };
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, sig) in [&SIG_MB_ALU, &SIG_MB_LOAD, &SIG_MB_STORE]
            .into_iter()
            .enumerate()
        {
            let sc = self.steer.score(sig) + 0.012 * self.rng.unit();
            if sc > best_score {
                best_score = sc;
                best = i;
            }
        }
        let kb = self.rng.konst();
        let (body, sig): (String, &[f64; N_CAT]) = match best {
            1 => (
                if let Some((v, bound)) = b.loop_vars.last().cloned() {
                    let ko = self.rng.range(0, 255 - bound.min(255));
                    format!("t = (t + (gw0[({v} + {ko})] + gb0[{v}]));")
                } else if self.rng.range(0, 1) == 0 {
                    "t = (t + (gw0[x] + gb0[x]));".to_string()
                } else {
                    "s = (s + (gw1[x] + gw0[x]));".to_string()
                },
                &SIG_MB_LOAD,
            ),
            2 => (
                if self.rng.range(0, 1) == 0 {
                    format!("gw1[(x + {kb})] = (s + {kb}); gw0[x] = s;")
                } else {
                    "gb0[x] = (t & 255); gw1[x] = t;".to_string()
                },
                &SIG_MB_STORE,
            ),
            _ => (
                if self.rng.range(0, 1) == 0 {
                    format!("s = (s + {kb});")
                } else {
                    format!("t = (t - {kb});")
                },
                &SIG_MB_ALU,
            ),
        };
        b.line(indent, &format!("if {cond} {{ {body} }}"));
        self.charge(b, sig);
    }

    fn stmt_loop(&mut self, b: &mut Body, indent: usize, remaining: f64) {
        let v = format!("i{}", self.var_ctr);
        self.var_ctr += 1;
        let mut trip = if b.loop_depth == 0 {
            self.rng.range(4, self.params.loop_trip_max.max(5))
        } else {
            self.rng.range(3, 8)
        };
        let body = (5.0 + 8.0 * self.rng.unit()).min(remaining.max(5.0));
        // Shrink the trip if the projected dynamic cost would blow the
        // function cap; below 2 iterations a loop is pointless — fall
        // back to a straight-line statement.
        let per_iter = b.mult * (body + 7.0);
        while trip > 2 && b.dyn_cost + trip as f64 * per_iter > HELPER_DYN_CAP {
            trip /= 2;
        }
        if trip < 2 {
            self.stmt_alu(b, indent);
            return;
        }
        let k = self.rng.konst() | 1;
        b.line(indent, &format!("var {v};"));
        b.line(
            indent,
            &format!("for ({v} = 0; {v} < {trip}; {v} = ({v} + 1)) {{"),
        );
        self.charge(b, &SIG_LOOP);
        b.dyn_cost += trip as f64 * b.mult * 4.0;
        let saved_mult = b.mult;
        b.mult *= trip as f64;
        b.loop_depth += 1;
        b.loop_vars.push((v.clone(), trip));
        b.line(indent + 1, &format!("s = (s + ({v} + {k}));"));
        self.charge(b, &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        self.emit_block(b, indent + 1, body);
        b.loop_vars.pop();
        b.loop_depth -= 1;
        b.mult = saved_mult;
        b.line(indent, "}");
    }
}
