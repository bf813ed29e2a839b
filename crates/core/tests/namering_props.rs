//! Property tests: the NameRing merge is a CRDT join and the Formatter is a
//! faithful bijection — the two invariants the asynchronous maintenance
//! protocol (§3.3) rests on — and the ring's in-memory form agrees with a
//! plain sorted map.

use std::collections::BTreeMap;

use h2cloud::formatter;
use h2cloud::{ChildRef, NameRing, Tuple};
use h2util::{NamespaceId, NodeId, Timestamp};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    // Names the filesystem would actually accept (no control chars, no '/').
    "[a-zA-Z0-9._ -]{1,24}"
}

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    (0u64..1_000_000, 0u32..64, 0u16..8).prop_map(|(m, s, n)| Timestamp::new(m, s, NodeId(n)))
}

fn arb_child() -> impl Strategy<Value = ChildRef> {
    prop_oneof![
        (0u64..1u64 << 40).prop_map(|size| ChildRef::File { size }),
        (1u64..1000, 0u16..8, 0u64..1_000_000).prop_map(|(seq, node, ms)| ChildRef::Dir {
            ns: NamespaceId::new(seq, NodeId(node), ms)
        }),
    ]
}

/// A tuple in one of its three states: live, a tombstone, or a tombstone
/// marked reclaimed (only a tombstone carries the mark).
fn tuple_in_state(ts: Timestamp, child: ChildRef, state: u8) -> Tuple {
    Tuple {
        ts,
        child,
        deleted: state > 0,
        reclaimed: state > 1,
    }
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (arb_timestamp(), arb_child(), 0u8..3)
        .prop_map(|(ts, child, state)| tuple_in_state(ts, child, state))
}

fn arb_ring() -> impl Strategy<Value = NameRing> {
    prop::collection::vec((arb_name(), arb_tuple()), 0..24)
        .prop_map(|entries| entries.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(a in arb_ring(), b in arb_ring()) {
        let ab = NameRing::merged(a.clone(), &b);
        let ba = NameRing::merged(b, &a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in arb_ring(), b in arb_ring(), c in arb_ring()) {
        let left = NameRing::merged(NameRing::merged(a.clone(), &b), &c);
        let right = NameRing::merged(a, &NameRing::merged(b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_idempotent(a in arb_ring()) {
        let aa = NameRing::merged(a.clone(), &a);
        prop_assert_eq!(aa, a);
    }

    #[test]
    fn merge_is_monotone(a in arb_ring(), b in arb_ring()) {
        // Joining never loses a child name (only overrides tuples).
        let merged = NameRing::merged(a.clone(), &b);
        for (name, _) in a.iter() {
            prop_assert!(merged.get_raw(name).is_some());
        }
        for (name, _) in b.iter() {
            prop_assert!(merged.get_raw(name).is_some());
        }
        prop_assert!(merged.version() >= a.version());
        prop_assert!(merged.version() >= b.version());
    }

    #[test]
    fn apply_order_does_not_matter(entries in prop::collection::vec((arb_name(), arb_tuple()), 0..16), seed in any::<u64>()) {
        let forward: NameRing = entries.clone().into_iter().collect();
        // A deterministic shuffle driven by the seed.
        let mut shuffled = entries;
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward: NameRing = shuffled.into_iter().collect();
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn formatter_roundtrips_namerings(a in arb_ring()) {
        let s = formatter::namering_to_string(&a);
        let back = formatter::namering_from_str(&s).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn formatter_roundtrips_patches(a in arb_ring()) {
        let s = formatter::patch_to_string(&a);
        let back = formatter::patch_from_str(&s).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn serialised_rings_are_ascii_and_line_structured(a in arb_ring()) {
        let s = formatter::namering_to_string(&a);
        prop_assert!(s.is_ascii());
        prop_assert_eq!(s.lines().count(), a.len() + 1);
    }

    #[test]
    fn a_marked_tombstone_wins_its_unmarked_twin(
        a in arb_ring(),
        name in arb_name(),
        t in arb_tuple(),
    ) {
        // Whichever twin lands first, the ring ends holding the marked one,
        // unless it held a tuple that beats both.
        let tomb = Tuple { deleted: true, reclaimed: false, ..t };
        let marked = tomb.mark_reclaimed();
        let original = a.get_raw(&name).copied();
        let mut one = a.clone();
        one.apply(&name, tomb);
        one.apply(&name, marked);
        let mut other = a;
        other.apply(&name, marked);
        other.apply(&name, tomb);
        prop_assert_eq!(&one, &other);
        let want = match original {
            Some(o) if merge_key(&o) > merge_key(&marked) => o,
            _ => marked,
        };
        prop_assert_eq!(one.get_raw(&name), Some(&want));
        prop_assert_eq!(one.get(&name).is_none(), want.deleted);
    }

    #[test]
    fn drop_covered_drops_a_same_stamp_tombstone_in_either_state(
        a in arb_ring(),
        name in arb_name(),
        t in arb_tuple(),
        held_marked in any::<bool>(),
        dropped_marked in any::<bool>(),
    ) {
        // GC compacted `name`'s tombstone in one state while a local ring
        // holds the same tombstone in the other: the local copy must go,
        // or it would rejoin the ring GC just compacted.
        let tomb = Tuple { deleted: true, reclaimed: false, ..t };
        let state = |marked: bool| if marked { tomb.mark_reclaimed() } else { tomb };
        let mut local = a;
        local.apply(&name, state(held_marked));
        let held = *local.get_raw(&name).unwrap();
        let twin = held.ts == tomb.ts && held.deleted && held.child == tomb.child;
        let goes = merge_key(&tomb.mark_reclaimed()) >= merge_key(&held);
        prop_assert!(!twin || goes);
        let before = local.len();
        let dropped = local.drop_covered(&[(name.clone(), state(dropped_marked))]);
        prop_assert_eq!(dropped, usize::from(goes));
        prop_assert_eq!(local.get_raw(&name).is_some(), !goes);
        prop_assert_eq!(local.len() + dropped, before);
    }

    #[test]
    fn compact_only_removes_old_tombstones(a in arb_ring(), horizon in arb_timestamp()) {
        let mut c = a.clone();
        let removed = c.compact(horizon);
        for (name, t) in &removed {
            prop_assert!(t.deleted && t.ts < horizon);
            prop_assert!(c.get_raw(name).is_none());
        }
        // Everything else survives untouched.
        for (name, t) in a.iter() {
            if !(t.deleted && t.ts < horizon) {
                prop_assert_eq!(c.get_raw(name), Some(t));
            }
        }
        prop_assert_eq!(a.len(), c.len() + removed.len());
    }
}

// ----- the representation against a model ----------------------------------
//
// The properties above compare one `NameRing` with another, so a bug in how a
// ring is held would pass them. Here the reference is a plain sorted map with
// the merge rule spelled out, and the reference body is the Formatter's
// output built from `to_string` pieces.

type Model = BTreeMap<String, Tuple>;

/// The merge order, spelled out: a newer stamp wins; at one stamp a
/// tombstone beats a live tuple, and a marked tombstone its unmarked twin.
fn merge_key(t: &Tuple) -> (Timestamp, bool, bool, ChildRef) {
    (t.ts, t.deleted, t.reclaimed, t.child)
}

fn model_apply(model: &mut Model, name: &str, t: Tuple) {
    match model.get_mut(name) {
        Some(held) => {
            if merge_key(&t) > merge_key(held) {
                *held = t;
            }
        }
        None => {
            model.insert(name.to_string(), t);
        }
    }
}

/// One tuple line of the body, the way the Formatter has always written it.
fn reference_line(name: &str, t: &Tuple) -> String {
    let (kind, aux) = match t.child {
        ChildRef::File { size } => ('F', size.to_string()),
        ChildRef::Dir { ns } => ('D', ns.to_string()),
    };
    let flag = match (t.deleted, t.reclaimed) {
        (false, _) => 'A',
        (true, false) => 'D',
        (true, true) => 'R',
    };
    format!("{name}\t{}\t{kind}\t{aux}\t{flag}\n", t.ts)
}

fn reference_body(lines: usize, body: &str) -> String {
    format!("{} {lines}\n{body}", formatter::NAMERING_MAGIC)
}

fn reference_writer(model: &Model) -> String {
    let body: String = model.iter().map(|(n, t)| reference_line(n, t)).collect();
    reference_body(model.len(), &body)
}

/// Few names and few clock values, so overrides and exact ties are common;
/// now and then a number as wide as its type, so every digit is written.
fn model_name() -> impl Strategy<Value = String> {
    "[a-f]{1,3}"
}

fn model_timestamp() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        (0u64..40, 0u32..3, 0u16..3).prop_map(|(m, s, n)| Timestamp::new(m, s, NodeId(n))),
        (any::<u64>(), any::<u32>(), any::<u16>()).prop_map(|(m, s, n)| Timestamp::new(
            m,
            s,
            NodeId(n)
        )),
    ]
}

fn model_tuple() -> impl Strategy<Value = Tuple> {
    let child = prop_oneof![
        (0u64..3).prop_map(|size| ChildRef::File { size }),
        any::<u64>().prop_map(|size| ChildRef::File { size }),
        (0u64..3, any::<u16>(), any::<u64>()).prop_map(|(seq, node, ms)| ChildRef::Dir {
            ns: NamespaceId::new(seq, NodeId(node), ms)
        }),
    ];
    (model_timestamp(), child, 0u8..3)
        .prop_map(|(ts, child, state)| tuple_in_state(ts, child, state))
}

#[derive(Debug, Clone)]
enum Step {
    Apply(String, Tuple),
    /// Small patches merge tuple by tuple, large ones in one lockstep pass.
    Merge(Vec<(String, Tuple)>),
    Compact(Timestamp),
    /// The tombstones a compaction elsewhere dropped, by name.
    DropCovered(BTreeMap<String, Tuple>),
    /// A node marks the tombstone it holds for a name reclaimed.
    Mark(String),
}

fn model_steps() -> impl Strategy<Value = Vec<Step>> {
    let entry = || (model_name(), model_tuple());
    let step = prop_oneof![
        entry().prop_map(|(n, t)| Step::Apply(n, t)),
        entry().prop_map(|(n, t)| Step::Apply(n, t)),
        prop::collection::vec(entry(), 1..9).prop_map(Step::Merge),
        prop::collection::vec(entry(), 9..201).prop_map(Step::Merge),
        model_timestamp().prop_map(Step::Compact),
        prop::collection::vec(entry(), 0..6).prop_map(|tombstones| {
            Step::DropCovered(
                tombstones
                    .into_iter()
                    .map(|(n, t)| (n, Tuple { deleted: true, ..t }))
                    .collect(),
            )
        }),
        model_name().prop_map(Step::Mark),
    ];
    prop::collection::vec(step, 1..24)
}

/// Everything observable about `ring` agrees with `model`.
fn agrees(ring: &NameRing, model: &Model) -> Result<(), TestCaseError> {
    let held: Vec<(String, Tuple)> = ring.iter().map(|(n, t)| (n.to_string(), *t)).collect();
    let want: Vec<(String, Tuple)> = model.iter().map(|(n, t)| (n.clone(), *t)).collect();
    prop_assert_eq!(held, want);
    for name in model
        .keys()
        .map(String::as_str)
        .chain(["", "a0", "ff", "g"])
    {
        prop_assert_eq!(ring.get_raw(name), model.get(name), "get_raw({:?})", name);
    }
    prop_assert_eq!(ring.len(), model.len());
    prop_assert_eq!(
        ring.live_len(),
        model.values().filter(|t| !t.deleted).count()
    );
    let version = model
        .values()
        .map(|t| t.ts)
        .max()
        .unwrap_or(Timestamp::ZERO);
    prop_assert_eq!(ring.version(), version);
    let body = formatter::namering_to_string(ring);
    prop_assert_eq!(&body, &reference_writer(model));
    prop_assert_eq!(&formatter::namering_from_str(&body).unwrap(), ring);
    Ok(())
}

fn run_against_model(steps: Vec<Step>) -> Result<(), TestCaseError> {
    let mut ring = NameRing::new();
    let mut model = Model::new();
    for step in steps {
        match step {
            Step::Apply(name, t) => {
                ring.apply(&name, t);
                model_apply(&mut model, &name, t);
            }
            Step::Merge(entries) => {
                let patch: NameRing = entries.iter().cloned().collect();
                let mut patch_model = Model::new();
                for (n, t) in &entries {
                    model_apply(&mut patch_model, n, *t);
                }
                agrees(&patch, &patch_model)?;
                let before = ring.clone();
                ring.merge_from(&patch);
                prop_assert_eq!(before.subsumes(&patch), before == ring);
                prop_assert!(ring.subsumes(&before) && ring.subsumes(&patch));
                prop_assert_eq!(before.subsumes(&ring), before == ring);
                for (n, t) in &patch_model {
                    model_apply(&mut model, n, *t);
                }
            }
            Step::Compact(horizon) => {
                let removed = ring.compact(horizon);
                let doomed: Vec<(String, Tuple)> = model
                    .iter()
                    .filter(|(_, t)| t.deleted && t.ts < horizon)
                    .map(|(n, t)| (n.clone(), *t))
                    .collect();
                model.retain(|_, t| !(t.deleted && t.ts < horizon));
                prop_assert_eq!(removed, doomed);
            }
            Step::DropCovered(tombstones) => {
                let before = model.len();
                // A dropped tombstone takes every tuple it covers in either
                // of its states.
                model.retain(|n, t| {
                    tombstones.get(n).is_none_or(|tomb| {
                        merge_key(&Tuple {
                            reclaimed: true,
                            ..*tomb
                        }) < merge_key(t)
                    })
                });
                let dropped: Vec<(String, Tuple)> = tombstones.into_iter().collect();
                prop_assert_eq!(ring.drop_covered(&dropped), before - model.len());
            }
            Step::Mark(name) => {
                if let Some(t) = ring.get_raw(&name).copied().filter(|t| t.deleted) {
                    ring.apply(&name, t.mark_reclaimed());
                    model_apply(
                        &mut model,
                        &name,
                        Tuple {
                            reclaimed: true,
                            ..t
                        },
                    );
                    prop_assert!(ring.get_raw(&name).unwrap().reclaimed);
                }
            }
        }
        agrees(&ring, &model)?;
    }
    Ok(())
}

/// A body whose lines are shuffled and partly repeated parses to what
/// applying its lines in order gives.
fn unsorted_body_parses_like_applying(
    entries: Vec<(String, Tuple)>,
    repeats: Vec<usize>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut lines = entries.clone();
    for r in repeats {
        lines.push(entries[r % entries.len()].clone());
    }
    let mut state = seed | 1;
    for i in (1..lines.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lines.swap(i, (state >> 33) as usize % (i + 1));
    }
    let body: String = lines.iter().map(|(n, t)| reference_line(n, t)).collect();
    let parsed = formatter::namering_from_str(&reference_body(lines.len(), &body)).unwrap();
    let mut applied = NameRing::new();
    let mut model = Model::new();
    for (n, t) in &lines {
        applied.apply(n, *t);
        model_apply(&mut model, n, *t);
    }
    prop_assert_eq!(&parsed, &applied);
    agrees(&parsed, &model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_agrees_with_a_sorted_map_model(steps in model_steps()) {
        run_against_model(steps)?;
    }

    #[test]
    fn shuffled_duplicated_body_parses_like_applying_in_order(
        entries in prop::collection::vec((model_name(), model_tuple()), 1..40),
        repeats in prop::collection::vec(any::<usize>(), 0..20),
        seed in any::<u64>()
    ) {
        unsorted_body_parses_like_applying(entries, repeats, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    #[ignore = "deep run: cargo test --release -p h2cloud --test namering_props -- --ignored"]
    fn ring_agrees_with_a_sorted_map_model_deep(steps in model_steps()) {
        run_against_model(steps)?;
    }
}
