//! Seeded request mixes for the `tepic-ccd` load generator.
//!
//! A serving benchmark needs traffic with a controlled temperature: a
//! small **hot pool** of programs requested over and over (these hit
//! the daemon's artifact cache and single-flight layer) and a long
//! tail of **cold** one-off programs (each forces a real build). This
//! module derives both from one seed with the same SplitMix64
//! discipline as corpus generation, so a mix is exactly reproducible
//! from `(seed, count, params)`.
//!
//! Scheme and op weights are fixed here rather than taken from the
//! serving layer (`ccc-workgen` sits below `ccc-bench` in the crate
//! DAG and cannot name its types).

use crate::{generate_program, splitmix64, Flavor, GenParams};

/// Scheme names a generated request may carry: a copy of
/// `ccc_core::schemes::MATRIX` (this crate does not depend on ccc-core),
/// pinned to it by `tests/workgen.rs`.
pub const MIX_SCHEMES: [&str; 5] = ["byte", "stream", "stream_1", "full", "tailored"];

/// Request operations, with their draw weights (encode-heavy, the
/// daemon's cheapest cacheable op, plus a real simulate share).
const OP_WEIGHTS: [(&str, u32); 4] = [
    ("encode", 5),
    ("simulate", 3),
    ("compile", 1),
    ("faultsim", 1),
];

/// One generated request: a program plus the op/scheme to ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Program name (stable per underlying program).
    pub name: String,
    /// Tink source text.
    pub source: String,
    /// Operation name (`compile`/`encode`/`simulate`/`faultsim`).
    pub op: &'static str,
    /// Scheme name from [`MIX_SCHEMES`].
    pub scheme: &'static str,
    /// Fault seed (only `faultsim` consumes it).
    pub seed: u64,
    /// True when this request was drawn from the hot pool.
    pub hot: bool,
}

/// Mix shape.
#[derive(Debug, Clone)]
pub struct MixParams {
    /// Fraction of requests drawn from the hot pool, in `[0, 1]`.
    pub hot_fraction: f64,
    /// Number of distinct (program, op, scheme) combinations in the
    /// hot pool.
    pub hot_pool: usize,
    /// Program-generation flavor.
    pub flavor: Flavor,
}

impl Default for MixParams {
    fn default() -> MixParams {
        MixParams {
            hot_fraction: 0.8,
            hot_pool: 8,
            flavor: Flavor::Tepic,
        }
    }
}

/// Generates a deterministic request mix: `count` requests, roughly
/// `hot_fraction` of them repeats of the `hot_pool` hot combinations,
/// the rest unique cold programs. Hot requests with equal index into
/// the pool are byte-identical (same name, source, op, scheme, seed) —
/// exactly what the daemon's single-flight and cache layers key on.
pub fn request_mix(seed: u64, count: usize, params: &MixParams) -> Vec<ServeRequest> {
    let gen_params = GenParams::for_flavor(params.flavor);
    let mut state = seed ^ 0x5EED_F00D_CAFE_B0BA;
    let pool_n = params.hot_pool.max(1);

    // The hot pool: small programs, each pinned to one op + scheme so a
    // repeat is a true warm hit.
    let hot_pool: Vec<ServeRequest> = (0..pool_n)
        .map(|i| {
            let pseed = splitmix64(&mut state);
            let name = format!("srv-hot-{}-{seed}-{i:04}", params.flavor.name());
            let p = generate_program(pseed, &gen_params, &name);
            let op = weighted_op(splitmix64(&mut state));
            let scheme = MIX_SCHEMES[(splitmix64(&mut state) % MIX_SCHEMES.len() as u64) as usize];
            ServeRequest {
                name: p.name,
                source: p.source,
                op,
                scheme,
                seed: splitmix64(&mut state),
                hot: true,
            }
        })
        .collect();

    let hot_cut = (params.hot_fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut cold_index = 0usize;
    (0..count)
        .map(|_| {
            if splitmix64(&mut state) <= hot_cut {
                let pick = (splitmix64(&mut state) % pool_n as u64) as usize;
                hot_pool[pick].clone()
            } else {
                let pseed = splitmix64(&mut state);
                let name = format!("srv-cold-{}-{seed}-{cold_index:06}", params.flavor.name());
                cold_index += 1;
                let p = generate_program(pseed, &gen_params, &name);
                let op = weighted_op(splitmix64(&mut state));
                let scheme =
                    MIX_SCHEMES[(splitmix64(&mut state) % MIX_SCHEMES.len() as u64) as usize];
                ServeRequest {
                    name: p.name,
                    source: p.source,
                    op,
                    scheme,
                    seed: splitmix64(&mut state),
                    hot: false,
                }
            }
        })
        .collect()
}

fn weighted_op(draw: u64) -> &'static str {
    let total: u32 = OP_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut x = (draw % total as u64) as u32;
    for (op, w) in OP_WEIGHTS {
        if x < w {
            return op;
        }
        x -= w;
    }
    OP_WEIGHTS[0].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix_is_deterministic_and_respects_shape() {
        let params = MixParams::default();
        let a = request_mix(42, 400, &params);
        let b = request_mix(42, 400, &params);
        assert_eq!(a, b, "same seed reproduces the identical mix");
        assert_ne!(a, request_mix(43, 400, &params), "seed matters");
        assert_eq!(a.len(), 400);

        let hot = a.iter().filter(|r| r.hot).count();
        let frac = hot as f64 / a.len() as f64;
        assert!(
            (frac - params.hot_fraction).abs() < 0.1,
            "hot fraction {frac} far from target {}",
            params.hot_fraction
        );

        // Hot requests reuse at most hot_pool distinct names; cold
        // requests are pairwise distinct.
        let hot_names: HashSet<&str> = a
            .iter()
            .filter(|r| r.hot)
            .map(|r| r.name.as_str())
            .collect();
        assert!(hot_names.len() <= params.hot_pool);
        let cold: Vec<&str> = a
            .iter()
            .filter(|r| !r.hot)
            .map(|r| r.name.as_str())
            .collect();
        let cold_set: HashSet<&&str> = cold.iter().collect();
        assert_eq!(cold.len(), cold_set.len(), "cold names are unique");

        // Every op and scheme comes from the declared sets.
        for r in &a {
            assert!(["compile", "encode", "simulate", "faultsim"].contains(&r.op));
            assert!(MIX_SCHEMES.contains(&r.scheme));
        }
        // A 400-request draw exercises more than one op and scheme.
        assert!(a.iter().map(|r| r.op).collect::<HashSet<_>>().len() > 1);
        assert!(a.iter().map(|r| r.scheme).collect::<HashSet<_>>().len() > 1);
    }

    #[test]
    fn hot_requests_are_byte_identical_repeats() {
        let a = request_mix(7, 200, &MixParams::default());
        let mut by_name: std::collections::HashMap<&str, &ServeRequest> =
            std::collections::HashMap::new();
        for r in a.iter().filter(|r| r.hot) {
            let prev = by_name.entry(r.name.as_str()).or_insert(r);
            assert_eq!(*prev, r, "hot repeats must be identical requests");
        }
    }

    #[test]
    fn generated_hot_programs_compile() {
        let mix = request_mix(
            1,
            1,
            &MixParams {
                hot_pool: 2,
                ..MixParams::default()
            },
        );
        let p = lego::compile(&mix[0].source, &lego::Options::default()).expect("compiles");
        assert!(p.num_ops() > 0);
    }
}
