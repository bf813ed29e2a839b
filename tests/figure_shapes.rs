//! Shape assertions over the experiment harness: the qualitative claims of
//! the paper's figures must hold in the reproduction — who wins, by what
//! kind of factor, and where the curves bend. (Release-quality absolute
//! numbers come from `cargo run -p h2bench --release --bin figures`.)

use h2bench::{experiments, rtt, systems::SystemKind, table1};

/// Columns in the fig7 table: n, then [MOVE, RENAME] per trio system.
const SWIFT_MOVE: usize = 1;
const H2_MOVE: usize = 3;
const DP_MOVE: usize = 5;

#[test]
fn fig7_swift_grows_h2_and_dp_stay_flat() {
    let t = experiments::fig7(true); // quick: n = 10, 100, 1000
    let rows = t.rows.len();
    let first = 0;
    let last = rows - 1;
    // Swift MOVE grows by ~n (10 → 1000 = two orders of magnitude).
    let swift_growth = t.value(last, SWIFT_MOVE) / t.value(first, SWIFT_MOVE);
    assert!(
        swift_growth > 20.0,
        "Swift MOVE should grow ~linearly, grew only {swift_growth:.1}x"
    );
    // H2 and DP stay flat.
    for (col, name) in [(H2_MOVE, "H2"), (DP_MOVE, "DP")] {
        let growth = t.value(last, col) / t.value(first, col);
        assert!(
            growth < 1.5,
            "{name} MOVE should be O(1), grew {growth:.1}x"
        );
    }
    // At n = 1000, Swift is orders of magnitude slower than H2.
    assert!(
        t.value(last, SWIFT_MOVE) > 10.0 * t.value(last, H2_MOVE),
        "Swift should lose by orders of magnitude at n=1000"
    );
}

#[test]
fn fig8_rmdir_same_shape() {
    let t = experiments::fig8(true);
    let last = t.rows.len() - 1;
    let swift_growth = t.value(last, 1) / t.value(0, 1);
    let h2_growth = t.value(last, 2) / t.value(0, 2);
    assert!(swift_growth > 20.0, "Swift RMDIR growth {swift_growth:.1}x");
    assert!(h2_growth < 1.5, "H2 RMDIR growth {h2_growth:.1}x");
}

#[test]
fn fig9_list_depends_on_m_not_n() {
    let t = experiments::fig9(true);
    let last = t.rows.len() - 1;
    for (col, name) in [(1, "Swift"), (2, "H2"), (3, "DP")] {
        let growth = t.value(last, col) / t.value(0, col);
        assert!(
            growth < 2.0,
            "{name} LIST must not scale with n (m fixed), grew {growth:.1}x"
        );
    }
}

#[test]
fn fig10_list_scales_with_m_and_swift_is_slowest() {
    let t = experiments::fig10(true); // m = 10, 100, 1000
    let last = t.rows.len() - 1;
    // All three grow with m…
    for (col, name) in [(1, "Swift"), (2, "H2"), (3, "DP")] {
        let growth = t.value(last, col) / t.value(0, col);
        assert!(
            growth > 3.0,
            "{name} LIST should grow with m, grew {growth:.1}x"
        );
    }
    // …and Swift is the slowest at m = 1000.
    assert!(
        t.value(last, 1) > t.value(last, 2),
        "Swift not slower than H2"
    );
    assert!(
        t.value(last, 1) > t.value(last, 3),
        "Swift not slower than DP"
    );
    // H2 LIST of 1000 files lands near the paper's 0.35 s (±50%).
    let h2_1000_s = t.value(last, 2) / 1000.0; // value() normalises to ms
    assert!(
        (0.15..0.8).contains(&h2_1000_s),
        "H2 LIST(1000) = {h2_1000_s:.3}s, expected ≈0.35s"
    );
}

#[test]
fn fig11_copy_similar_for_all_and_linear() {
    let t = experiments::fig11(true);
    let last = t.rows.len() - 1;
    for (col, name) in [(1, "Swift"), (2, "H2"), (3, "DP")] {
        let growth = t.value(last, col) / t.value(0, col);
        assert!(
            growth > 10.0,
            "{name} COPY should be O(n), grew {growth:.1}x"
        );
    }
    // Similar magnitudes: within 3x of each other at the largest n.
    let vals = [t.value(last, 1), t.value(last, 2), t.value(last, 3)];
    let (min, max) = (
        vals.iter().cloned().fold(f64::MAX, f64::min),
        vals.iter().cloned().fold(0.0, f64::max),
    );
    assert!(max / min < 3.0, "COPY times too far apart: {vals:?}");
}

#[test]
fn fig12_mkdir_constant_and_ordered() {
    let t = experiments::fig12(true);
    let last = t.rows.len() - 1;
    for (col, name) in [(1, "Swift"), (2, "H2"), (3, "DP")] {
        let growth = t.value(last, col) / t.value(0, col);
        assert!(
            growth < 1.3,
            "{name} MKDIR should be constant, grew {growth:.1}x"
        );
    }
    // Swift fastest; H2 and DP in the 100–260 ms band.
    assert!(t.value(0, 1) < t.value(0, 2) && t.value(0, 1) < t.value(0, 3));
    for col in [2, 3] {
        let v = t.value(0, col);
        assert!((90.0..260.0).contains(&v), "MKDIR {v:.0}ms outside band");
    }
}

#[test]
fn fig13_access_swift_flat_h2_linear_in_d() {
    let t = experiments::fig13(true); // d = 1, 4, 8
    let last = t.rows.len() - 1;
    let swift_growth = t.value(last, 1) / t.value(0, 1);
    assert!(
        swift_growth < 1.2,
        "Swift access should be flat, grew {swift_growth:.1}x"
    );
    let h2_growth = t.value(last, 2) / t.value(0, 2);
    assert!(
        h2_growth > 4.0,
        "H2 access should grow ~linearly with d (1→8), grew {h2_growth:.1}x"
    );
    // Swift ≈ 10 ms; H2 at d = 4 near the paper's 61 ms.
    let swift = t.value(0, 1);
    assert!(
        (6.0..16.0).contains(&swift),
        "Swift access {swift:.1}ms, expected ≈10ms"
    );
    let h2_d4 = experiments::h2_access_ms_at_depth(4);
    assert!(
        (40.0..85.0).contains(&h2_d4),
        "H2 access at d=4 {h2_d4:.1}ms, expected ≈61ms"
    );
}

#[test]
fn fig14_15_h2_more_objects_but_negligible_bytes() {
    let t = experiments::fig14_15(true);
    // Row 0: objects. The paper's claim, exactly: H2Cloud adds a descriptor
    // + a NameRing per directory (Swift keeps one marker object per
    // directory) and the root NameRing — no term that grows with file
    // bytes. The workload note reads "F files, D directories across U
    // users"; each user's tree sits under one more directory.
    let swift_objects = t.value(0, 1);
    let h2_objects = t.value(0, 2);
    let workload: Vec<f64> = t.notes[0]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let directories = workload[1] + workload[2];
    assert_eq!(
        h2_objects,
        swift_objects + directories + 1.0,
        "{}",
        t.notes[0]
    );
    // Byte overhead under 2%.
    let overhead_pct = t.value(1, 3);
    assert!(
        overhead_pct.abs() < 2.0,
        "byte overhead should be negligible, got {overhead_pct}%"
    );
    // And no separate index rows for H2 (row 2, col 2).
    assert_eq!(t.rows[2][2], "0");
}

#[test]
fn rtt_alpha_matches_paper_bands() {
    let t = rtt::rtt_table();
    // Directory ops for H2 (col 2): α stays below ~1 (operation dominates).
    for row in 0..4 {
        let alpha = t.value(row, 2);
        assert!(
            alpha < 1.0,
            "H2 {} α = {alpha} — directory op should dominate RTT",
            t.rows[row][0]
        );
    }
    // File access: Swift α ≈ 5–7 at any depth; H2 α falls monotonically
    // with depth; Dropbox α ≈ 0.5.
    let swift_alpha = t.value(4, 1);
    assert!((3.0..9.0).contains(&swift_alpha), "Swift α {swift_alpha}");
    let h2_shallow = t.value(4, 2);
    let h2_deep = t.value(7, 2);
    assert!(h2_shallow > 2.0, "H2 shallow α {h2_shallow}");
    assert!(h2_deep < 0.5, "H2 deep α {h2_deep}");
    let dp_alpha = t.value(4, 3);
    assert!((0.2..1.2).contains(&dp_alpha), "DP α {dp_alpha}");
}

#[test]
fn table1_h2_row_matches_paper() {
    let t = table1::table1(&[SystemKind::H2Cloud, SystemKind::SwiftDb]);
    let h2 = &t.rows[0];
    // Columns: System, FA meas, FA paper, MKDIR meas, …
    assert!(h2[1].starts_with("O(x)"), "H2 FileAccess: {}", h2[1]); // O(d)
    assert!(h2[3].starts_with("O(1)"), "H2 MKDIR: {}", h2[3]);
    assert!(h2[5].starts_with("O(1)"), "H2 RMDIR: {}", h2[5]);
    assert!(h2[7].starts_with("O(1)"), "H2 MOVE: {}", h2[7]);
    assert!(h2[9].starts_with("O(x)"), "H2 LIST: {}", h2[9]); // O(m)
    assert!(h2[11].starts_with("O(x)"), "H2 COPY: {}", h2[11]); // O(n)
    let swift = &t.rows[1];
    assert!(
        swift[1].starts_with("O(1)"),
        "Swift FileAccess: {}",
        swift[1]
    );
    assert!(swift[5].starts_with("O(x)"), "Swift RMDIR: {}", swift[5]);
    assert!(swift[7].starts_with("O(x)"), "Swift MOVE: {}", swift[7]);
}
