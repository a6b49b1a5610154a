//! **Table IV** — implementation complexity (Section VII-D).
//!
//! The paper counts lines added/modified in Xen with CLOC, split into
//! (1) code executing during normal operation and (2) code executing only
//! during recovery, for both NiLiHype and ReHype. This binary applies the
//! same methodology to this reproduction's own sources:
//!
//! * category (1) is the normal-operation support in the hypervisor
//!   substrate (undo/completion logging inside the micro-op interpreter)
//!   plus the shared `OpSupport` plumbing — approximated here by the
//!   mechanism-agnostic parts of `nlh-core` (`enhancements.rs`, `clr.rs`);
//! * category (2) is the recovery-only code: `microreset.rs` for NiLiHype,
//!   `microreboot.rs` for ReHype, plus the shared recovery steps
//!   (`shared.rs`, `latency.rs`) counted for both.

use std::path::{Path, PathBuf};

use nlh_experiments::hr;
use nlh_loc::{count_str, strip_tests, LineCounts};

fn count(path: &Path) -> LineCounts {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    count_str(&strip_tests(&src))
}

fn core_src() -> PathBuf {
    // experiments/ and core/ are sibling crates.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .join("core/src")
}

fn main() {
    let _ = nlh_experiments::ExpOptions::from_args();
    let src = core_src();

    // Category (1): normal-operation support shared by both mechanisms.
    let mut normal = LineCounts::default();
    for f in ["enhancements.rs", "clr.rs", "lib.rs"] {
        normal.add(count(&src.join(f)));
    }

    // Category (2): recovery-only code.
    let mut shared_recovery = LineCounts::default();
    for f in ["shared.rs", "latency.rs"] {
        shared_recovery.add(count(&src.join(f)));
    }
    let microreset = count(&src.join("microreset.rs"));
    let microreboot = count(&src.join("microreboot.rs"));

    let nili_normal = normal.code;
    let nili_recovery = shared_recovery.code + microreset.code;
    let re_normal = normal.code;
    let re_recovery = shared_recovery.code + microreboot.code;

    println!("Table IV: implementation complexity (code lines, tests stripped,");
    println!("measured over this reproduction's recovery crate with nlh-loc)");
    hr();
    println!("{:44} {:>12} {:>12}", "Category", "NiLiHype", "ReHype");
    hr();
    println!(
        "{:44} {:>12} {:>12}",
        "(1) executes during normal operation", nili_normal, re_normal
    );
    println!(
        "{:44} {:>12} {:>12}",
        "(2) executes only during recovery", nili_recovery, re_recovery
    );
    hr();
    println!(
        "{:44} {:>12} {:>12}",
        "Total",
        nili_normal + nili_recovery,
        re_normal + re_recovery
    );
    println!();
    println!(
        "Mechanism-specific recovery code: microreset {} vs microreboot {} lines",
        microreset.code, microreboot.code
    );
    println!();
    println!("Paper (lines added/modified in Xen): NiLiHype < 2200 total; ReHype needs");
    println!("noticeably more recovery-only code (preserve + re-integrate state across");
    println!("the reboot) and two extra normal-operation logs (I/O APIC writes, boot");
    println!(
        "line). Here: {}",
        mechanism_comparison(microreset.code, microreboot.code)
    );
    println!("and only ReHype needs the ioapic/bootline log plumbing.");
}

/// How ReHype's mechanism file compares with NiLiHype's, in code lines,
/// against the paper's shape (ReHype's is larger).
fn mechanism_comparison(microreset: u64, microreboot: u64) -> String {
    match microreboot.cmp(&microreset) {
        std::cmp::Ordering::Greater => format!(
            "ReHype's mechanism file is larger by {} lines, as in the paper,",
            microreboot - microreset
        ),
        std::cmp::Ordering::Less => format!(
            "ReHype's mechanism file is smaller by {} lines, unlike the paper,",
            microreset - microreboot
        ),
        std::cmp::Ordering::Equal => {
            "the two mechanism files are the same size, unlike the paper,".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mechanism_comparison;

    #[test]
    fn comparison_follows_the_counts() {
        assert_eq!(
            mechanism_comparison(149, 151),
            "ReHype's mechanism file is larger by 2 lines, as in the paper,"
        );
        assert_eq!(
            mechanism_comparison(191, 174),
            "ReHype's mechanism file is smaller by 17 lines, unlike the paper,"
        );
        assert_eq!(
            mechanism_comparison(150, 150),
            "the two mechanism files are the same size, unlike the paper,"
        );
    }
}
