//! Same-host ratio checks over one recorded hotpath benchmark JSON —
//! the CI perf-regression gate.
//!
//! The workspace vendors no JSON library, and the `BENCH_PR10.json`
//! format is our own (flat, one section per line, emitted by
//! [`crate::hotpath`]), so extraction is a small scanner rather than a
//! parser: find the section key, then the entry key after it, then the
//! first `"p50_ns":` integer after that.

/// The brace-balanced JSON object following `"key"` in `s`, or `None`
/// when the key (or its object) is absent. Bounding every lookup to the
/// owning object keeps a missing entry from silently matching the same
/// key in a *later* section.
fn object_at<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let at = s.find(&format!("\"{key}\""))?;
    let rest = &s[at..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts `section.entry.p50_ns` from a hotpath benchmark JSON.
///
/// Returns `None` when the section/entry/field is absent.
#[must_use]
pub fn extract_p50(json: &str, section: &str, entry: &str) -> Option<u64> {
    let entry_obj = object_at(object_at(json, section)?, entry)?;
    let field = entry_obj.find("\"p50_ns\":")?;
    let digits: String = entry_obj[field + "\"p50_ns\":".len()..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Outcome of one gated comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateCheck {
    /// What was compared (e.g. `steal.steal_cycle vs steal.local_pop`).
    pub what: String,
    /// Baseline median, ns.
    pub baseline_p50_ns: u64,
    /// Current median, ns.
    pub current_p50_ns: u64,
    /// `true` when the current median exceeds the allowed regression.
    pub regressed: bool,
}

impl std::fmt::Display for GateCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<28} baseline {:>6} ns  current {:>6} ns  {}",
            self.what,
            self.baseline_p50_ns,
            self.current_p50_ns,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Same-host ratio gate between two p50 medians of ONE json: the
/// numerator (`num_section.num_entry`) may exceed the denominator
/// (`den_section.den_entry`) by at most `max_over_pct` percent. Both
/// sides come from the same process on the same machine, so the bound
/// is valid on any hardware — this is how the remove-heavy
/// (remove-then-pop ≤ 2× pop) and burst (batched ≤ sequential + slack)
/// invariants are enforced in CI.
///
/// # Errors
///
/// A message naming the missing entry.
pub fn gate_ratio(
    json: &str,
    num: (&str, &str),
    den: (&str, &str),
    max_over_pct: u64,
) -> Result<GateCheck, String> {
    let n = extract_p50(json, num.0, num.1)
        .ok_or_else(|| format!("JSON lacks {}.{}.p50_ns", num.0, num.1))?;
    let d = extract_p50(json, den.0, den.1)
        .ok_or_else(|| format!("JSON lacks {}.{}.p50_ns", den.0, den.1))?;
    let limit = d.saturating_mul(100 + max_over_pct) / 100;
    Ok(GateCheck {
        what: format!("{}.{} vs {}.{}", num.0, num.1, den.0, den.1),
        baseline_p50_ns: d,
        current_p50_ns: n,
        regressed: n > limit,
    })
}

/// Same-host **minimum-speedup** gate between two p50 medians of one
/// JSON: the `slow` median must be at least `min_speedup_pct` percent
/// of the `fast` median — 200 enforces "slow ≥ 2× fast". This is the
/// form the batch-steal amortisation takes (eight single hand-offs must
/// cost at least twice one batched exchange); [`gate_ratio`] cannot
/// express it, since its bound is a maximum over the denominator, not a
/// required multiple.
///
/// # Errors
///
/// A message naming the missing entry.
pub fn gate_min_speedup(
    json: &str,
    slow: (&str, &str),
    fast: (&str, &str),
    min_speedup_pct: u64,
) -> Result<GateCheck, String> {
    let s = extract_p50(json, slow.0, slow.1)
        .ok_or_else(|| format!("JSON lacks {}.{}.p50_ns", slow.0, slow.1))?;
    let f = extract_p50(json, fast.0, fast.1)
        .ok_or_else(|| format!("JSON lacks {}.{}.p50_ns", fast.0, fast.1))?;
    let floor = f.saturating_mul(min_speedup_pct) / 100;
    Ok(GateCheck {
        what: format!(
            "{}.{} >= {min_speedup_pct}% of {}.{}",
            slow.0, slow.1, fast.0, fast.1
        ),
        baseline_p50_ns: floor,
        current_p50_ns: s,
        regressed: s < floor,
    })
}

/// Same-host sanity gate: within one JSON, the mailbox-fed sharded
/// path may cost at most `max_overhead_pct` percent over the direct
/// path for each entry point. Both sides are measured in the same
/// process on the same host, so this bound is immune to
/// runner-vs-reference-host speed differences; it catches a lock,
/// allocation or O(n) scan slipping into the mailbox feed itself.
///
/// # Errors
///
/// A message naming the first entry missing from the JSON.
pub fn gate_mailbox_overhead(
    current_json: &str,
    max_overhead_pct: u64,
) -> Result<Vec<GateCheck>, String> {
    let entries = ["on_tick", "on_job_completed"];
    let mut checks = Vec::with_capacity(entries.len());
    for entry in entries {
        let direct = extract_p50(current_json, "after", entry)
            .ok_or_else(|| format!("current JSON lacks after.{entry}.p50_ns"))?;
        let fed = extract_p50(current_json, "mailbox_feed", entry)
            .ok_or_else(|| format!("current JSON lacks mailbox_feed.{entry}.p50_ns"))?;
        let limit = direct.saturating_mul(100 + max_overhead_pct) / 100;
        checks.push(GateCheck {
            what: format!("mailbox_feed.{entry}"),
            baseline_p50_ns: direct,
            current_p50_ns: fed,
            regressed: fed > limit,
        });
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "bench": "hotpath",
  "after": {"on_tick": {"p50_ns": 140, "p99_ns": 646}, "on_job_completed": {"p50_ns": 190, "p99_ns": 294}},
  "dispatches": 22000
}"#;

    #[test]
    fn extracts_nested_p50() {
        assert_eq!(extract_p50(BASE, "after", "on_tick"), Some(140));
        assert_eq!(extract_p50(BASE, "after", "on_job_completed"), Some(190));
        assert_eq!(extract_p50(BASE, "after", "missing"), None);
        assert_eq!(extract_p50(BASE, "before", "on_tick"), None);
    }

    #[test]
    fn missing_entry_does_not_read_the_next_section() {
        // "after" lacks on_tick here; the lookup must NOT fall through
        // to mailbox_feed.on_tick.
        let json = r#"{
  "after": {"on_job_completed": {"p50_ns": 190}},
  "mailbox_feed": {"on_tick": {"p50_ns": 141}, "on_job_completed": {"p50_ns": 213}}
}"#;
        assert_eq!(extract_p50(json, "after", "on_tick"), None);
        assert_eq!(extract_p50(json, "after", "on_job_completed"), Some(190));
        assert_eq!(extract_p50(json, "mailbox_feed", "on_tick"), Some(141));
    }

    #[test]
    fn extraction_skips_earlier_sections() {
        let json = r#"{
  "pr2_baseline": {"on_tick": {"p50_ns": 999}},
  "after": {"on_tick": {"p50_ns": 100}}
}"#;
        assert_eq!(extract_p50(json, "after", "on_tick"), Some(100));
        assert_eq!(extract_p50(json, "pr2_baseline", "on_tick"), Some(999));
    }

    #[test]
    fn ratio_gate_bounds_numerator_over_denominator() {
        let json = r#"{
  "remove_heavy": {"pop": {"p50_ns": 100}, "remove_then_pop": {"p50_ns": 180}, "n": 1024},
  "burst": {"sequential": {"p50_ns": 900}, "batched": {"p50_ns": 700}, "workers": 8}
}"#;
        let rh = gate_ratio(
            json,
            ("remove_heavy", "remove_then_pop"),
            ("remove_heavy", "pop"),
            100,
        )
        .unwrap();
        assert!(!rh.regressed, "{rh:?}");
        let b = gate_ratio(json, ("burst", "batched"), ("burst", "sequential"), 25).unwrap();
        assert!(!b.regressed, "{b:?}");
        // Past the bound -> regressed.
        let slow = json.replace("\"p50_ns\": 180", "\"p50_ns\": 260");
        let rh = gate_ratio(
            &slow,
            ("remove_heavy", "remove_then_pop"),
            ("remove_heavy", "pop"),
            100,
        )
        .unwrap();
        assert!(rh.regressed, "{rh:?}");
        assert!(gate_ratio(json, ("missing", "x"), ("burst", "batched"), 10).is_err());
    }

    #[test]
    fn min_speedup_gate_requires_the_multiple() {
        let json = r#"{
  "steal_batch": {"single": {"p50_ns": 2600}, "batch": {"p50_ns": 1000}, "n": 63, "k": 8},
  "queue_scan": {"soa": {"p50_ns": 90}, "inline_ref": {"p50_ns": 100}, "n": 8192}
}"#;
        // single = 2.6x batch: a 2x floor passes, a 3x floor fails.
        let ok = gate_min_speedup(
            json,
            ("steal_batch", "single"),
            ("steal_batch", "batch"),
            200,
        )
        .unwrap();
        assert!(!ok.regressed, "{ok:?}");
        assert_eq!(ok.baseline_p50_ns, 2000);
        assert_eq!(ok.current_p50_ns, 2600);
        let bad = gate_min_speedup(
            json,
            ("steal_batch", "single"),
            ("steal_batch", "batch"),
            300,
        )
        .unwrap();
        assert!(bad.regressed, "{bad:?}");
        assert!(bad.to_string().contains("REGRESSED"));
        // Missing entries error loudly.
        assert!(gate_min_speedup(json, ("missing", "x"), ("steal_batch", "batch"), 200).is_err());
        assert!(gate_min_speedup(json, ("steal_batch", "single"), ("missing", "x"), 200).is_err());
    }

    const PR3: &str = r#"{
  "bench": "hotpath",
  "after": {"on_tick": {"p50_ns": 160}, "on_job_completed": {"p50_ns": 190}},
  "mailbox_feed": {"on_tick": {"p50_ns": 140}, "on_job_completed": {"p50_ns": 210}}
}"#;

    #[test]
    fn mailbox_overhead_gate_passes_within_bound() {
        let checks = gate_mailbox_overhead(PR3, 100).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| !c.regressed), "{checks:?}");
    }

    #[test]
    fn mailbox_overhead_gate_fails_past_bound() {
        let slow = PR3.replace("\"p50_ns\": 210", "\"p50_ns\": 500");
        let checks = gate_mailbox_overhead(&slow, 100).unwrap();
        let bad: Vec<_> = checks.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].what, "mailbox_feed.on_job_completed");
        assert!(gate_mailbox_overhead("{}", 100).is_err());
    }
}
