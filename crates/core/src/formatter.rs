//! The Formatter (§4.4): stringifying every data type into ASCII objects.
//!
//! Three object kinds need string forms beyond raw file bytes:
//!
//! * **NameRings** — "represented in lists of tuples … alphabetically
//!   sorted by their names and packed to ASCII strings one after another";
//! * **NameRing patches** — "firstly converted to the form of a normal
//!   NameRing and then represented in lists of tuples";
//! * **Directories** — "converted to ASCII strings corresponding to their
//!   namespaces" (the descriptor object holding the directory's UUID).
//!
//! The wire format is line-oriented: a magic+version header, then one
//! tab-separated tuple per line. Child names may not contain control
//! characters (enforced by [`h2fsapi::FsPath`]), so `\t`/`\n` are safe
//! separators. Parsing is strict: any malformed line is a
//! [`H2Error::Corrupt`] — better to surface corruption than to silently
//! drop filesystem state.

use h2util::chunker::ChunkParams;
use h2util::hash::Digest128;
use h2util::{H2Error, NamespaceId, Result, Timestamp};

use crate::keys::DirDescriptor;
use crate::namering::{ChildRef, NameRing, Tuple};

/// Header of a serialised NameRing object.
pub const NAMERING_MAGIC: &str = "H2NR1";
/// Header of a serialised patch object (same body as a NameRing).
pub const PATCH_MAGIC: &str = "H2PT1";
/// Header of a directory descriptor object.
pub const DIR_MAGIC: &str = "H2DIR1";
/// Header of a CAS-file manifest object (root of the block tree).
pub const CAS_MANIFEST_MAGIC: &str = "H2CAS1";
/// Header of a CAS branch (pointer) block.
pub const CAS_BRANCH_MAGIC: &str = "H2BR1";

/// Manifest stored at a CAS file's content key: the root of a Venti-style
/// hash tree. `entries` are the top-level children — leaf blocks directly,
/// or branch blocks ([`CAS_BRANCH_MAGIC`]) once the child count exceeds the
/// tree fan-out — each recorded as `(content address, logical span)`.
/// `total == 0` is legal: an empty file is a manifest with no entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CasManifest {
    /// Write generation. A retried manifest PUT re-sends the identical
    /// body (same stamp), letting the writer tell "I displaced my own torn
    /// attempt" from "I displaced a real previous generation" — only the
    /// latter's blocks may be released.
    pub stamp: u64,
    /// Branch levels between `entries` and the leaves: 0 = entries are
    /// leaf blocks, 1 = entries are branch blocks over leaves, and so on.
    pub depth: u32,
    /// Whether leaves carry inline bytes (`true`) or simulated content.
    pub inline: bool,
    /// Logical file size.
    pub total: u64,
    /// Digest of the whole logical content (the file's ETag).
    pub digest: Digest128,
    /// Chunking bounds the file was split with (needed so an append can
    /// re-derive the same boundaries).
    pub params: ChunkParams,
    /// Top-level children: `(content address, logical span)`.
    pub entries: Vec<(Digest128, u64)>,
}

/// CAS manifest → ASCII object body.
pub fn cas_manifest_to_string(m: &CasManifest) -> String {
    let mut out = String::with_capacity(64 + m.entries.len() * 48);
    out.push_str(CAS_MANIFEST_MAGIC);
    out.push(' ');
    out.push_str(&m.entries.len().to_string());
    out.push('\n');
    out.push_str(&format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        m.stamp,
        m.depth,
        if m.inline { 'I' } else { 'S' },
        m.total,
        m.digest,
        m.params.min,
        m.params.target,
        m.params.max
    ));
    for (d, len) in &m.entries {
        out.push_str(&format!("{d}\t{len}\n"));
    }
    out
}

/// One `digest \t len` child line (shared by manifests and branches).
fn parse_child_line(line: &str) -> Result<(Digest128, u64)> {
    let mut f = line.split('\t');
    let (d, len) = match (f.next(), f.next()) {
        (Some(a), Some(b)) if f.next().is_none() => (a, b),
        _ => return Err(H2Error::Corrupt(format!("bad cas child line {line:?}"))),
    };
    let d = Digest128::from_hex(d)
        .ok_or_else(|| H2Error::Corrupt(format!("bad cas child digest {d:?}")))?;
    let len: u64 = len
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad cas child length {len:?}")))?;
    if len == 0 {
        return Err(H2Error::Corrupt("zero-length cas child".into()));
    }
    Ok((d, len))
}

/// `MAGIC <count>` header line, returning the count.
fn parse_counted_header(magic: &str, header: &str) -> Result<usize> {
    let (got, count) = header
        .split_once(' ')
        .ok_or_else(|| H2Error::Corrupt(format!("bad {magic} header {header:?}")))?;
    if got != magic {
        return Err(H2Error::Corrupt(format!(
            "expected {magic} object, found {got:?}"
        )));
    }
    count
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad {magic} entry count {count:?}")))
}

/// ASCII object body → CAS manifest.
pub fn cas_manifest_from_str(s: &str) -> Result<CasManifest> {
    let mut lines = s.lines();
    let header = lines
        .next()
        .ok_or_else(|| H2Error::Corrupt("empty cas manifest".into()))?;
    let count = parse_counted_header(CAS_MANIFEST_MAGIC, header)?;
    let body = lines
        .next()
        .ok_or_else(|| H2Error::Corrupt("missing cas manifest body".into()))?;
    let fields: Vec<&str> = body.split('\t').collect();
    let [stamp, depth, kind, total, digest, min, target, max] = fields[..] else {
        return Err(H2Error::Corrupt(format!("bad cas manifest body {body:?}")));
    };
    let stamp: u64 = stamp
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad cas stamp {stamp:?}")))?;
    let depth: u32 = depth
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad cas depth {depth:?}")))?;
    let inline = match kind {
        "I" => true,
        "S" => false,
        other => return Err(H2Error::Corrupt(format!("bad cas kind {other:?}"))),
    };
    let total: u64 = total
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad cas total {total:?}")))?;
    let digest = Digest128::from_hex(digest)
        .ok_or_else(|| H2Error::Corrupt(format!("bad cas digest {digest:?}")))?;
    let parse_bound = |v: &str| -> Result<u64> {
        v.parse()
            .map_err(|_| H2Error::Corrupt(format!("bad cas chunk bound {v:?}")))
    };
    let params = ChunkParams {
        min: parse_bound(min)?,
        target: parse_bound(target)?,
        max: parse_bound(max)?,
    };
    if params.min == 0 || params.min > params.target || params.target > params.max {
        return Err(H2Error::Corrupt(format!(
            "degenerate cas chunk bounds {params:?}"
        )));
    }
    let entries = lines.map(parse_child_line).collect::<Result<Vec<_>>>()?;
    if entries.len() != count {
        return Err(H2Error::Corrupt(format!(
            "cas entry count mismatch: header says {count}, found {}",
            entries.len()
        )));
    }
    if total == 0 && !entries.is_empty() {
        return Err(H2Error::Corrupt("empty cas file with child entries".into()));
    }
    if depth > 0 && entries.is_empty() {
        return Err(H2Error::Corrupt("cas tree depth with no entries".into()));
    }
    Ok(CasManifest {
        stamp,
        depth,
        inline,
        total,
        digest,
        params,
        entries,
    })
}

/// CAS branch block (children of one interior tree node) → ASCII body.
pub fn cas_branch_to_string(children: &[(Digest128, u64)]) -> String {
    let mut out = String::with_capacity(16 + children.len() * 48);
    out.push_str(CAS_BRANCH_MAGIC);
    out.push(' ');
    out.push_str(&children.len().to_string());
    out.push('\n');
    for (d, len) in children {
        out.push_str(&format!("{d}\t{len}\n"));
    }
    out
}

/// ASCII body → CAS branch children.
pub fn cas_branch_from_str(s: &str) -> Result<Vec<(Digest128, u64)>> {
    let mut lines = s.lines();
    let header = lines
        .next()
        .ok_or_else(|| H2Error::Corrupt("empty cas branch".into()))?;
    let count = parse_counted_header(CAS_BRANCH_MAGIC, header)?;
    let children = lines.map(parse_child_line).collect::<Result<Vec<_>>>()?;
    if children.len() != count {
        return Err(H2Error::Corrupt(format!(
            "cas branch count mismatch: header says {count}, found {}",
            children.len()
        )));
    }
    if children.is_empty() {
        return Err(H2Error::Corrupt("empty cas branch block".into()));
    }
    Ok(children)
}

/// Decimal digits of `v`, zero-padded to at least `width`.
fn dec_len(v: u64, width: usize) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1).max(width)
}

/// Append `v` in decimal, zero-padded to at least `width` digits — what
/// `{v:0width$}` prints, without a formatter or a temporary.
fn push_dec(out: &mut String, v: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut i = digits.len();
    let mut rest = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for _ in dec_len(v, 0)..width {
        out.push('0');
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// `Timestamp`'s `Display` form: `millis.seq(4).node(2)`.
fn push_ts(out: &mut String, ts: Timestamp) {
    push_dec(out, ts.millis, 0);
    out.push('.');
    push_dec(out, u64::from(ts.seq), 4);
    out.push('.');
    push_dec(out, u64::from(ts.node.0), 2);
}

fn ts_len(ts: Timestamp) -> usize {
    dec_len(ts.millis, 0) + 1 + dec_len(u64::from(ts.seq), 4) + 1 + dec_len(u64::from(ts.node.0), 2)
}

/// `NamespaceId`'s `Display` form: `seq(2).node(2).millis`.
fn push_ns(out: &mut String, ns: NamespaceId) {
    push_dec(out, ns.seq, 2);
    out.push('.');
    push_dec(out, u64::from(ns.node.0), 2);
    out.push('.');
    push_dec(out, ns.millis, 0);
}

fn ns_len(ns: NamespaceId) -> usize {
    dec_len(ns.seq, 2) + 1 + dec_len(u64::from(ns.node.0), 2) + 1 + dec_len(ns.millis, 0)
}

/// Exact length of a header line counting `tuples`.
fn header_len(magic: &str, tuples: usize) -> usize {
    magic.len() + 1 + dec_len(tuples as u64, 0) + 1
}

/// Exact length of [`push_tuples`]'s output for `ring`.
fn tuple_lines_len(ring: &NameRing) -> usize {
    let tuples: usize = ring
        .iter()
        .map(|(_, t)| {
            let aux = match t.child {
                ChildRef::File { size } => dec_len(size, 0),
                ChildRef::Dir { ns } => ns_len(ns),
            };
            // Four tabs, the kind, the flag and the newline.
            ts_len(t.ts) + aux + 7
        })
        .sum();
    ring.name_bytes() + tuples
}

/// Serialise a NameRing (or, with [`PATCH_MAGIC`], a patch).
fn format_ring(magic: &str, ring: &NameRing) -> String {
    let mut out = String::with_capacity(header_len(magic, ring.len()) + tuple_lines_len(ring));
    push_header(&mut out, magic, ring.len());
    push_tuples(&mut out, ring);
    out
}

/// The header line: magic and tuple count.
fn push_header(out: &mut String, magic: &str, tuples: usize) {
    out.push_str(magic);
    out.push(' ');
    push_dec(out, tuples as u64, 0);
    out.push('\n');
}

/// One line per tuple of `ring`, in its order.
fn push_tuples(out: &mut String, ring: &NameRing) {
    for (name, t) in ring.iter() {
        out.push_str(name);
        out.push('\t');
        push_ts(out, t.ts);
        match t.child {
            ChildRef::File { size } => {
                out.push_str("\tF\t");
                push_dec(out, size, 0);
            }
            ChildRef::Dir { ns } => {
                out.push_str("\tD\t");
                push_ns(out, ns);
            }
        }
        // The paper's Deleted tag, `R` for a tombstone marked reclaimed:
        // one byte either way, so a mark never changes a body's length.
        out.push_str(match (t.deleted, t.reclaimed) {
            (false, _) => "\tA\n",
            (true, false) => "\tD\n",
            (true, true) => "\tR\n",
        });
    }
}

/// Shortest tuple line the Formatter writes, after the name: a
/// 9-character timestamp, four tabs, a kind, a 1-digit size, a flag and
/// the newline.
const MIN_LINE_AFTER_NAME: usize = 17;

fn parse_ring(magic: &str, s: &str) -> Result<NameRing> {
    let mut lines = s.lines();
    let header = lines
        .next()
        .ok_or_else(|| H2Error::Corrupt("empty ring object".into()))?;
    let (got_magic, count) = header
        .split_once(' ')
        .ok_or_else(|| H2Error::Corrupt(format!("bad ring header {header:?}")))?;
    if got_magic != magic {
        return Err(H2Error::Corrupt(format!(
            "expected {magic} object, found {got_magic:?}"
        )));
    }
    let count: usize = count
        .parse()
        .map_err(|_| H2Error::Corrupt(format!("bad tuple count {count:?}")))?;
    // Room for every tuple a Formatter-written body of this length can
    // hold and for the longest names it leaves room for, so such a body
    // parses in exactly two allocations; a header lying about its count
    // cannot reserve more than the body could fill. (Other bodies may
    // outgrow the hint; it is only a capacity.)
    let body = s.len() - header.len();
    let tuples = count.min(body / (MIN_LINE_AFTER_NAME + 1));
    let mut ring =
        NameRing::with_capacity(tuples, body.saturating_sub(tuples * MIN_LINE_AFTER_NAME));
    let mut seen = 0usize;
    for line in lines {
        let mut f = line.split('\t');
        let (name, ts, kind, aux, flag) = match (f.next(), f.next(), f.next(), f.next(), f.next()) {
            (Some(a), Some(b), Some(c), Some(d), Some(e)) if f.next().is_none() => (a, b, c, d, e),
            _ => return Err(H2Error::Corrupt(format!("bad tuple line {line:?}"))),
        };
        let ts: Timestamp = ts
            .parse()
            .map_err(|e| H2Error::Corrupt(format!("bad timestamp: {e}")))?;
        let child = match kind {
            "F" => ChildRef::File {
                size: aux
                    .parse()
                    .map_err(|_| H2Error::Corrupt(format!("bad size {aux:?}")))?,
            },
            "D" => ChildRef::Dir {
                ns: aux
                    .parse()
                    .map_err(|e| H2Error::Corrupt(format!("bad namespace: {e}")))?,
            },
            other => return Err(H2Error::Corrupt(format!("bad child kind {other:?}"))),
        };
        let (deleted, reclaimed) = match flag {
            "A" => (false, false),
            "D" => (true, false),
            "R" => (true, true),
            other => return Err(H2Error::Corrupt(format!("bad deleted flag {other:?}"))),
        };
        let tuple = Tuple {
            ts,
            child,
            deleted,
            reclaimed,
        };
        // Formatter order appends; anything else (hand-edited or foreign
        // bodies, duplicate names) takes the merge rule, as it always has.
        ring.push(name, tuple);
        seen += 1;
    }
    if seen != count {
        return Err(H2Error::Corrupt(format!(
            "tuple count mismatch: header says {count}, found {seen}"
        )));
    }
    Ok(ring)
}

/// NameRing → ASCII object body.
pub fn namering_to_string(ring: &NameRing) -> String {
    format_ring(NAMERING_MAGIC, ring)
}

/// ASCII object body → NameRing.
pub fn namering_from_str(s: &str) -> Result<NameRing> {
    parse_ring(NAMERING_MAGIC, s)
}

/// Patch → ASCII object body (a patch *is* a NameRing, §3.3.2).
pub fn patch_to_string(patch: &NameRing) -> String {
    format_ring(PATCH_MAGIC, patch)
}

/// A patch segment's next body: `held`, the body the segment's earlier
/// submits wrote with `tuples` tuples ("" and 0 for a fresh segment),
/// followed by `batch`'s tuples. Only the batch is formatted: the held
/// lines are copied as they are, and a name that both hold parses by the
/// merge rule. A fresh segment's body is [`patch_to_string`]'s.
pub(crate) fn patch_extend(held: &str, tuples: usize, batch: &NameRing) -> String {
    let lines = held.split_once('\n').map_or("", |(_, lines)| lines);
    let total = tuples + batch.len();
    let len = header_len(PATCH_MAGIC, total) + lines.len() + tuple_lines_len(batch);
    let mut out = String::with_capacity(len);
    push_header(&mut out, PATCH_MAGIC, total);
    out.push_str(lines);
    push_tuples(&mut out, batch);
    out
}

/// ASCII object body → patch.
pub fn patch_from_str(s: &str) -> Result<NameRing> {
    parse_ring(PATCH_MAGIC, s)
}

/// Directory descriptor → ASCII object body.
pub fn dir_to_string(d: &DirDescriptor) -> String {
    format!("{DIR_MAGIC}\n{}\t{}\t{}\n", d.ns, d.name, d.created)
}

/// ASCII object body → directory descriptor.
pub fn dir_from_str(s: &str) -> Result<DirDescriptor> {
    let mut lines = s.lines();
    match lines.next() {
        Some(DIR_MAGIC) => {}
        other => {
            return Err(H2Error::Corrupt(format!(
                "expected {DIR_MAGIC} object, found {other:?}"
            )))
        }
    }
    let body = lines
        .next()
        .ok_or_else(|| H2Error::Corrupt("missing descriptor body".into()))?;
    let mut f = body.split('\t');
    let (ns, name, created) = match (f.next(), f.next(), f.next()) {
        (Some(a), Some(b), Some(c)) if f.next().is_none() => (a, b, c),
        _ => return Err(H2Error::Corrupt(format!("bad descriptor body {body:?}"))),
    };
    let ns: NamespaceId = ns
        .parse()
        .map_err(|e| H2Error::Corrupt(format!("bad namespace: {e}")))?;
    let created: Timestamp = created
        .parse()
        .map_err(|e| H2Error::Corrupt(format!("bad created ts: {e}")))?;
    Ok(DirDescriptor {
        ns,
        name: name.to_string(),
        created,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2util::NodeId;

    fn ts(m: u64) -> Timestamp {
        Timestamp::new(m, 0, NodeId(1))
    }

    fn sample_ring() -> NameRing {
        let mut r = NameRing::new();
        r.apply("cat", Tuple::file(ts(1), 4096));
        r.apply("bash", Tuple::file(ts(2), 1_048_576));
        r.apply(
            "docs",
            Tuple::dir(ts(3), NamespaceId::new(6, NodeId(1), 1_469_346_604_539)),
        );
        r.apply("gone", Tuple::file(ts(4), 7).tombstone(ts(5)));
        r
    }

    #[test]
    fn namering_roundtrip() {
        let r = sample_ring();
        let s = namering_to_string(&r);
        assert!(s.starts_with("H2NR1 4\n"));
        let back = namering_from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn a_reclaimed_mark_round_trips_and_keeps_the_body_length() {
        let r = sample_ring();
        let mut marked = r.clone();
        let gone = *r.get_raw("gone").unwrap();
        marked.apply("gone", gone.mark_reclaimed());
        let (plain, body) = (namering_to_string(&r), namering_to_string(&marked));
        assert_eq!(body.len(), plain.len());
        assert!(body.contains("gone\t5.0000.01\tF\t7\tR\n"), "{body}");
        let back = namering_from_str(&body).unwrap();
        assert_eq!(back, marked);
        let t = back.get_raw("gone").unwrap();
        assert!(t.deleted && t.reclaimed);
        assert!(back.get("gone").is_none());
    }

    #[test]
    fn tuples_are_alphabetical_in_the_string() {
        let s = namering_to_string(&sample_ring());
        let names: Vec<&str> = s
            .lines()
            .skip(1)
            .map(|l| l.split('\t').next().unwrap())
            .collect();
        assert_eq!(names, ["bash", "cat", "docs", "gone"]);
    }

    #[test]
    fn patch_roundtrip_and_magic_mismatch() {
        let r = sample_ring();
        let s = patch_to_string(&r);
        assert!(s.starts_with("H2PT1"));
        assert_eq!(patch_from_str(&s).unwrap(), r);
        // A patch is not accepted where a NameRing is expected.
        assert_eq!(namering_from_str(&s).unwrap_err().code(), "corrupt");
    }

    #[test]
    fn an_extended_segment_parses_to_the_join_of_its_batches() {
        let first = sample_ring();
        let fresh = patch_extend("", 0, &first);
        assert_eq!(fresh, patch_to_string(&first));
        // The second batch re-creates `gone` and adds a name.
        let mut second = NameRing::new();
        second.apply("gone", Tuple::file(ts(6), 8));
        second.apply("zed", Tuple::file(ts(7), 1));
        let body = patch_extend(&fresh, first.len(), &second);
        assert!(body.starts_with("H2PT1 6\n"), "{body}");
        let mut joined = first.clone();
        joined.merge_from(&second);
        assert_eq!(patch_from_str(&body).unwrap(), joined);
    }

    #[test]
    fn empty_ring_roundtrip() {
        let r = NameRing::new();
        let s = namering_to_string(&r);
        assert_eq!(s, "H2NR1 0\n");
        assert_eq!(namering_from_str(&s).unwrap(), r);
    }

    #[test]
    fn corruption_is_detected() {
        assert!(namering_from_str("").is_err());
        assert!(namering_from_str("H2NR1 notanumber\n").is_err());
        assert!(namering_from_str("H2NR1 1\nname-without-fields\n").is_err());
        assert!(namering_from_str("H2NR1 2\na\t1.0000.01\tF\t1\tA\n").is_err()); // count mismatch
        assert!(namering_from_str("H2NR1 1\na\t1.0000.01\tX\t1\tA\n").is_err()); // bad kind
        assert!(namering_from_str("H2NR1 1\na\t1.0000.01\tF\t1\tZ\n").is_err()); // bad flag
        assert!(namering_from_str("H2NR1 1\na\tbadts\tF\t1\tA\n").is_err());
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = DirDescriptor {
            ns: NamespaceId::new(6, NodeId(1), 1_469_346_604_539),
            name: "home".to_string(),
            created: ts(42),
        };
        let s = dir_to_string(&d);
        assert!(s.starts_with("H2DIR1\n"));
        assert_eq!(dir_from_str(&s).unwrap(), d);
        assert!(dir_from_str("garbage").is_err());
        assert!(dir_from_str("H2DIR1\nonly-one-field\n").is_err());
    }

    #[test]
    fn serialised_form_is_ascii() {
        let s = namering_to_string(&sample_ring());
        assert!(s.is_ascii(), "formatter must emit ASCII strings");
    }

    #[test]
    fn cas_manifest_roundtrip_including_empty_file() {
        let m = CasManifest {
            stamp: 77,
            depth: 1,
            inline: true,
            total: 3000,
            digest: h2util::hash::hash128(b"whole"),
            params: ChunkParams::with_target(1 << 10),
            entries: vec![
                (h2util::hash::hash128(b"c0"), 1200),
                (h2util::hash::hash128(b"c1"), 1800),
            ],
        };
        let s = cas_manifest_to_string(&m);
        assert!(s.starts_with("H2CAS1 2\n"));
        assert!(s.is_ascii());
        assert_eq!(cas_manifest_from_str(&s).unwrap(), m);
        // Empty file: zero total, no entries — legal.
        let empty = CasManifest {
            stamp: 1,
            depth: 0,
            inline: true,
            total: 0,
            digest: h2util::hash::hash128(b""),
            params: ChunkParams::default(),
            entries: vec![],
        };
        let s = cas_manifest_to_string(&empty);
        assert_eq!(cas_manifest_from_str(&s).unwrap(), empty);
    }

    #[test]
    fn cas_branch_roundtrip() {
        let children = vec![
            (h2util::hash::hash128(b"a"), 10u64),
            (h2util::hash::hash128(b"b"), 20u64),
        ];
        let s = cas_branch_to_string(&children);
        assert!(s.starts_with("H2BR1 2\n"));
        assert_eq!(cas_branch_from_str(&s).unwrap(), children);
    }

    #[test]
    fn cas_corruption_is_detected() {
        assert!(cas_manifest_from_str("").is_err());
        assert!(cas_manifest_from_str("H2CAS1 x\n").is_err());
        assert!(cas_manifest_from_str("H2CAS1 0\n").is_err()); // missing body
        let d = h2util::hash::hash128(b"x");
        // Count mismatch.
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 2\n7\t0\tI\t5\t{d}\t1\t2\t4\n{d}\t5\n"))
                .is_err()
        );
        // Degenerate chunk bounds.
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 1\n7\t0\tI\t5\t{d}\t4\t2\t1\n{d}\t5\n"))
                .is_err()
        );
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 1\n7\t0\tI\t5\t{d}\t0\t2\t4\n{d}\t5\n"))
                .is_err()
        );
        // Zero-length child, bad digest, empty file with entries, branch
        // depth with no entries.
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 1\n7\t0\tI\t5\t{d}\t1\t2\t4\n{d}\t0\n"))
                .is_err()
        );
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 1\n7\t0\tI\t5\t{d}\t1\t2\t4\nnothex\t5\n"))
                .is_err()
        );
        assert!(
            cas_manifest_from_str(&format!("H2CAS1 1\n7\t0\tI\t0\t{d}\t1\t2\t4\n{d}\t5\n"))
                .is_err()
        );
        assert!(cas_manifest_from_str(&format!("H2CAS1 0\n7\t1\tI\t5\t{d}\t1\t2\t4\n")).is_err());
        // Branches: empty blocks and magic confusion are corrupt.
        assert!(cas_branch_from_str("H2BR1 0\n").is_err());
        assert!(cas_branch_from_str(&format!("H2CAS1 1\n{d}\t5\n")).is_err());
        assert!(cas_manifest_from_str(&cas_branch_to_string(&[(d, 5)])).is_err());
    }
}
