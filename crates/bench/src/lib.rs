//! # yasmin-bench
//!
//! The experiment harness regenerating every table and figure of the
//! YASMIN paper's evaluation:
//!
//! * [`fig2`] — Figure 2 (a/b): scheduling overhead vs Mollison &
//!   Anderson, by task count and by utilisation;
//! * [`table2`] — Table 2: cyclictest latency on PREEMPT_RT and LitmusRT;
//! * [`fig4`] — Figure 4: the drone SAR scheduling exploration.
//!
//! Each module exposes `run` + `render`; the binaries
//! (`exp_fig2`, `exp_table2`, `exp_fig4`) print the paper-format tables
//! and write a Markdown table and a CSV under `results/` through
//! [`write_result`]; the committed outputs and the host they were
//! measured on are in `results/README.md`. End-to-end and per-layer
//! numbers come from `benchmark/run.sh`.

#![warn(missing_docs)]

pub mod fig2;
pub mod fig4;
pub mod table2;

use std::io::Write;

/// Writes `content` to `results/<name>` (best-effort; the experiment
/// still succeeds when the directory is read-only).
pub fn write_result(name: &str, content: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::File::create(dir.join(name)) {
        let _ = f.write_all(content.as_bytes());
    }
}
