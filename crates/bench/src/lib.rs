//! # ccc-bench — the experiment harness
//!
//! Every table and figure of the paper is one entry of
//! [`figures::FIGURES`] (see DESIGN.md §3 for the index), rendered by
//! `tepic-cc bench --figures <name> > results/<stem>.txt`:
//!
//! | name | stem | reproduces |
//! |---|---|---|
//! | `fig05` | `fig05_compression` | Figure 5 — code size per scheme |
//! | `fig07` | `fig07_att_size` | Figure 7 — ATB characteristics / total size with ATT |
//! | `fig10` | `fig10_decoder` | Figure 10 — Huffman decoder complexity |
//! | `fig13` | `fig13_cache_study` | Figure 13 — IPC per encoding per benchmark |
//! | `fig14` | `fig14_bus_power` | Figure 14 — memory-bus bit flips |
//! | `table1` | `table1_penalties` | Table 1 — cycle count assumptions |
//! | `table2` | `table2_formats` | Table 2 — TEPIC formats |
//! | `diag` | `diag` | workload inventory sanity |
//!
//! The extension experiments (ablations, sweeps, §7 future work) are
//! entries of the same table and render with `--all` or by name.
//!
//! This library holds the shared plumbing: the parallel prepared-
//! workload [`engine`] (worker pool + content-addressed artifact cache),
//! the pure figure renderers ([`figures`]), and the text-table renderer.

pub mod engine;
pub mod figures;
pub mod history;
pub mod serve;

use ccc_core::EncodedProgram;
use ifetch_sim::{simulate, EncodingClass, FetchConfig, FetchResult};
use tepic_isa::Program;
use tinker_workloads::Workload;
use yula::BlockTrace;

/// A fully prepared workload: compiled, traced, and encoded under every
/// scheme of the paper's Figure-5 matrix plus the uncompressed base.
#[derive(Debug)]
pub struct Prepared {
    /// The workload descriptor.
    pub workload: &'static Workload,
    /// The compiled program.
    pub program: Program,
    /// Its dynamic block trace.
    pub trace: BlockTrace,
    /// Uncompressed image.
    pub base_img: EncodedProgram,
    /// Byte-wise Huffman image.
    pub byte_img: EncodedProgram,
    /// Stream Huffman image (the `stream` configuration).
    pub stream_img: EncodedProgram,
    /// Stream Huffman image (the `stream_1` configuration).
    pub stream1_img: EncodedProgram,
    /// Full-op compressed image.
    pub compressed_img: EncodedProgram,
    /// Tailored image.
    pub tailored_img: EncodedProgram,
}

impl Prepared {
    /// The encoded image for a scheme name (including `base`), found by
    /// each image's own [`ccc_core::SchemeKind`].
    pub fn image(&self, scheme: &str) -> Option<&EncodedProgram> {
        [
            &self.base_img,
            &self.byte_img,
            &self.stream_img,
            &self.stream1_img,
            &self.compressed_img,
            &self.tailored_img,
        ]
        .into_iter()
        .find(|img| img.kind.name() == scheme)
    }

    /// The matrix images in figure order, named.
    pub fn images(&self) -> impl Iterator<Item = (&'static str, &EncodedProgram)> {
        engine::MATRIX_SCHEMES
            .into_iter()
            .map(|s| (s, self.image(s).expect("every matrix scheme is prepared")))
    }
}

/// The Figure-13 quartet for one prepared workload.
pub struct CacheStudy {
    /// Perfect cache/predictor bound.
    pub ideal: FetchResult,
    /// Uncompressed baseline.
    pub base: FetchResult,
    /// Full-op compressed with L0 buffer.
    pub compressed: FetchResult,
    /// Tailored ISA.
    pub tailored: FetchResult,
}

/// Runs the four fetch configurations over one prepared workload, using
/// the paper-spec (16KB/20KB) caches. With our workload sizes these see
/// almost no capacity pressure; use [`cache_study_scaled`] for the
/// Figure-13 reproduction.
pub fn cache_study(p: &Prepared) -> CacheStudy {
    study(p, FetchConfig::of_class)
}

/// Runs the four fetch configurations with caches scaled to the
/// workload's code size, preserving the paper's code:cache pressure
/// (see [`FetchConfig::scaled`] and DESIGN.md section 4).
pub fn cache_study_scaled(p: &Prepared) -> CacheStudy {
    let code = p.base_img.total_bytes();
    study(p, |class| FetchConfig::scaled(class, code))
}

/// The Figure-13 quartet under `config`; each image runs in the fetch
/// class of its own scheme.
fn study(p: &Prepared, config: impl Fn(EncodingClass) -> FetchConfig) -> CacheStudy {
    let run = |img: &EncodedProgram, class| simulate(&p.program, img, &p.trace, &config(class));
    let own = |img: &EncodedProgram| run(img, EncodingClass::of(&img.kind));
    CacheStudy {
        ideal: run(&p.base_img, EncodingClass::Ideal),
        base: own(&p.base_img),
        compressed: own(&p.compressed_img),
        tailored: own(&p.tailored_img),
    }
}

/// Renders a fixed-width text table: a header row and data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>width$}", width = w + 2))
            .collect::<String>()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Geometric mean of a nonempty, positive series.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Median (averaging the middle pair for even lengths).
pub fn median(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let mut v = vals.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns() {
        let t = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("longer"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
