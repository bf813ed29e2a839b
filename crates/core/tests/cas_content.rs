//! Chunk-boundary edge cases for the content-addressed content plane.
//!
//! These tests run on the test profile, which is the tuned profile and so
//! has the CAS plane on (like the fsck tamper test). They pin the chunker's
//! observable contract through the full stack: empty files, files exactly
//! at the min/target/max chunk sizes, prefix-stability of a single-byte
//! append (only the tail block is rewritten), and refcount accounting
//! under overwrite/delete churn — live blocks must return to zero when the
//! last referencing file goes away.

use h2cloud::check::fsck;
use h2cloud::{H2Cloud, H2Config};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::chunker::{self, ChunkParams};
use h2util::hash::hash128;
use h2util::trace::{CAS_BLOCKS_SHARED, CAS_BLOCKS_WRITTEN, DEDUP_BYTES_SAVED};
use h2util::OpCtx;

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn setup() -> (H2Cloud, OpCtx) {
    let fs = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "alice").unwrap();
    (fs, ctx)
}

fn patterned(len: usize) -> FileContent {
    let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    FileContent::Inline(h2util::SharedBuf::from_slice(&bytes))
}

#[test]
fn empty_file_round_trips_with_zero_blocks() {
    let (fs, mut ctx) = setup();
    let before = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    fs.write(&mut ctx, "alice", &p("/empty"), FileContent::from_str(""))
        .unwrap();
    // An empty file is a manifest with no entries: no leaf blocks at all.
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), before);
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/empty")).unwrap(),
        FileContent::from_str("")
    );
    assert_eq!(fs.stat(&mut ctx, "alice", &p("/empty")).unwrap().size, 0);
    // Same for a zero-length simulated file.
    fs.write(&mut ctx, "alice", &p("/empty2"), FileContent::Simulated(0))
        .unwrap();
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), before);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    fs.delete_file(&mut ctx, "alice", &p("/empty")).unwrap();
    fs.delete_file(&mut ctx, "alice", &p("/empty2")).unwrap();
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
}

#[test]
fn files_exactly_at_min_target_and_max_chunk_size() {
    let (fs, mut ctx) = setup();
    let params = ChunkParams::default();

    // Exactly `min` bytes: below any cut point — exactly one leaf block.
    let at_min = patterned(params.min as usize);
    let before = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    fs.write(&mut ctx, "alice", &p("/min"), at_min.clone())
        .unwrap();
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), before + 1);
    assert_eq!(fs.read(&mut ctx, "alice", &p("/min")).unwrap(), at_min);

    // Exactly `target` bytes: between 1 and target/min chunks.
    let at_target = patterned(params.target as usize);
    let before = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    fs.write(&mut ctx, "alice", &p("/target"), at_target.clone())
        .unwrap();
    let wrote = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN) - before;
    assert!(
        (1..=params.target / params.min).contains(&wrote),
        "target-size file wrote {wrote} blocks"
    );
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/target")).unwrap(),
        at_target
    );

    // Exactly `max` bytes: the ceiling forces at most one extra cut over
    // the schedule, never more than max/min chunks.
    let at_max = patterned(params.max as usize);
    let before = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    fs.write(&mut ctx, "alice", &p("/max"), at_max.clone())
        .unwrap();
    let wrote = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN) - before;
    assert!(
        (1..=params.max / params.min).contains(&wrote),
        "max-size file wrote {wrote} blocks"
    );
    assert_eq!(fs.read(&mut ctx, "alice", &p("/max")).unwrap(), at_max);

    // Identical content at a second path collapses to the same blocks.
    let before = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    let saved = fs.metrics().counter_value(DEDUP_BYTES_SAVED);
    fs.write(&mut ctx, "alice", &p("/max-dup"), at_max.clone())
        .unwrap();
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), before);
    assert_eq!(
        fs.metrics().counter_value(DEDUP_BYTES_SAVED),
        saved + params.max
    );
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
}

#[test]
fn single_byte_append_rewrites_only_the_tail_block() {
    let (fs, mut ctx) = setup();
    let params = ChunkParams::default();
    // Irregular size so the schedule's tail chunk is truncated mid-entry.
    let size = 6 * 1024 * 1024 + 12_345u64;
    // Simulated content digests are seeded by the path, so the grown file
    // shares the original's digest and the chunk schedule is prefix-stable.
    let digest = hash128("/grow".as_bytes());
    let old = chunker::chunk_simulated(&params, digest, size);
    let new = chunker::chunk_simulated(&params, digest, size + 1);
    let old_digests: std::collections::HashSet<_> = old.iter().map(|c| c.digest).collect();
    let fresh = new
        .iter()
        .filter(|c| !old_digests.contains(&c.digest))
        .count() as u64;
    let shared = new.len() as u64 - fresh;
    // A one-byte append reshapes at most the tail entry (possibly spilling
    // one extra 1-byte chunk past it) — never a settled block.
    assert!(fresh <= 2, "append re-chunked {fresh} blocks");
    assert!(shared >= old.len() as u64 - 1);

    fs.write(&mut ctx, "alice", &p("/grow"), FileContent::Simulated(size))
        .unwrap();
    assert_eq!(fs.cluster().cas_live_blocks(), old.len() as u64);
    let written = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    let reused = fs.metrics().counter_value(CAS_BLOCKS_SHARED);
    fs.write(
        &mut ctx,
        "alice",
        &p("/grow"),
        FileContent::Simulated(size + 1),
    )
    .unwrap();
    // Pin the rewrite to exactly the chunker's predicted fresh blocks, and
    // the share count to the surviving prefix.
    assert_eq!(
        fs.metrics().counter_value(CAS_BLOCKS_WRITTEN),
        written + fresh
    );
    assert_eq!(
        fs.metrics().counter_value(CAS_BLOCKS_SHARED),
        reused + shared
    );
    // The displaced generation's tail was reclaimed: live blocks track the
    // new chunk set exactly.
    assert_eq!(fs.cluster().cas_live_blocks(), new.len() as u64);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/grow")).unwrap(),
        FileContent::Simulated(size + 1)
    );
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
}

#[test]
fn refcounts_survive_overwrite_delete_churn_across_accounts() {
    let (fs, mut ctx) = setup();
    fs.create_account(&mut ctx, "bob").unwrap();
    let shared = |seed| FileContent::SimulatedShared {
        size: 3 * 1024 * 1024,
        seed,
    };

    // Both accounts hold the same content: one physical block set.
    fs.write(&mut ctx, "alice", &p("/pkg"), shared(7)).unwrap();
    let one_copy = fs.cluster().cas_live_blocks();
    assert!(one_copy > 0);
    let written = fs.metrics().counter_value(CAS_BLOCKS_WRITTEN);
    fs.write(&mut ctx, "bob", &p("/mirror"), shared(7)).unwrap();
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), written);
    assert_eq!(fs.cluster().cas_live_blocks(), one_copy);

    // Alice overwrites her copy with different content: seed-7 blocks stay
    // live because bob still references them.
    fs.write(&mut ctx, "alice", &p("/pkg"), shared(8)).unwrap();
    assert!(fs.cluster().cas_live_blocks() > one_copy);
    assert_eq!(
        fs.read(&mut ctx, "bob", &p("/mirror")).unwrap(),
        FileContent::Simulated(3 * 1024 * 1024)
    );

    // Bob deletes: the last seed-7 reference goes, blocks reclaim, and
    // alice's seed-8 copy is untouched.
    fs.delete_file(&mut ctx, "bob", &p("/mirror")).unwrap();
    assert_eq!(fs.cluster().cas_live_blocks(), one_copy);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/pkg")).unwrap(),
        FileContent::Simulated(3 * 1024 * 1024)
    );

    // Churn: interleaved overwrites and deletes across both accounts must
    // leave exactly zero live blocks once every file is gone.
    for i in 0..8u64 {
        let who = if i % 2 == 0 { "alice" } else { "bob" };
        let path = p(&format!("/churn{i}"));
        fs.write(&mut ctx, who, &path, shared(i % 3)).unwrap();
        fs.write(&mut ctx, who, &path, FileContent::Simulated(512 * 1024 + i))
            .unwrap();
        fs.write(&mut ctx, who, &path, shared(i % 3)).unwrap();
    }
    for i in 0..8u64 {
        let who = if i % 2 == 0 { "alice" } else { "bob" };
        fs.delete_file(&mut ctx, who, &p(&format!("/churn{i}")))
            .unwrap();
    }
    fs.delete_file(&mut ctx, "alice", &p("/pkg")).unwrap();
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    assert!(fsck(&fs, &mut ctx, "bob").unwrap().is_clean());
}

#[test]
fn large_write_charges_its_blocks_to_the_content_stage() {
    // The stage histograms split an op's virtual time by purpose: a 24 MiB
    // CAS write's block and manifest I/O is content time, and the stages
    // together never hold more than the op took — traced or not.
    use h2util::trace::{STAGE_BACKOFF_MS, STAGE_CONTENT_MS, STAGE_QUORUM_MS, STAGE_RING_MS};
    for trace_sample in [0.0, 1.0] {
        let fs = H2Cloud::new(H2Config {
            trace_sample,
            ..H2Config::tuned()
        });
        let mut ctx = OpCtx::new(fs.cluster().cost_model());
        fs.create_account(&mut ctx, "alice").unwrap();
        let total_us = |name: &str| {
            let h = fs.metrics().histogram(name);
            h.mean().as_micros() as u64 * h.count()
        };
        let stages = [
            STAGE_RING_MS,
            STAGE_CONTENT_MS,
            STAGE_QUORUM_MS,
            STAGE_BACKOFF_MS,
        ];
        // Account creation is not an observed op: the histograms are empty.
        assert_eq!(stages.map(|s| fs.metrics().histogram(s).count()), [0; 4]);
        let mut op = OpCtx::new(fs.cluster().cost_model());
        fs.write(
            &mut op,
            "alice",
            &p("/big"),
            FileContent::Simulated(24 << 20),
        )
        .unwrap();
        let [ring, content, quorum, backoff] = stages.map(total_us);
        let elapsed = op.elapsed().as_micros() as u64;
        assert!(
            content > ring,
            "trace {trace_sample}: content {content} us, ring {ring} us"
        );
        assert!(
            ring + content + quorum + backoff <= elapsed,
            "trace {trace_sample}: stages {} us over an op of {elapsed} us",
            ring + content + quorum + backoff
        );
    }
}
