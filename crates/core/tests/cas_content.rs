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
    // An empty file is shorter than one leaf, so it is one whole object:
    // no leaf blocks at all.
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

/// A file one byte shorter than `min` can never be cut, so it is one whole
/// object: one PUT to write, one GET to read, one DELETE to delete and one
/// server-side COPY to copy, and no block ever lives.
#[test]
fn a_file_shorter_than_one_leaf_is_one_object() {
    let (fs, _) = setup();
    let mw = fs.layer().mw_for_account("alice");
    let keys = h2cloud::H2Keys::new("alice");
    let root = h2util::NamespaceId::ROOT;
    let bytes: Vec<u8> = (0..ChunkParams::default().min - 1)
        .map(|i| (i % 251) as u8)
        .collect();
    let payload = swiftsim::Payload::Inline(h2util::SharedBuf::from_slice(&bytes).into_bytes());
    let base = fs.storage_stats().objects;

    let mut put = OpCtx::for_test();
    mw.put_content(&mut put, &keys, root, "small", payload.clone())
        .unwrap();
    assert_eq!((put.counts().puts, put.counts().total()), (1, 1));
    assert_eq!(fs.storage_stats().objects, base + 1);

    let mut get = OpCtx::for_test();
    assert_eq!(
        mw.get_content(&mut get, &keys, root, "small").unwrap(),
        payload
    );
    assert_eq!((get.counts().gets, get.counts().total()), (1, 1));

    // The COPY follows the GET that finds no manifest at the source.
    let mut copy = OpCtx::for_test();
    mw.copy_content(&mut copy, &keys, root, "small", root, "copy")
        .unwrap();
    assert_eq!(copy.counts().copies, 1);
    assert_eq!((copy.counts().gets, copy.counts().total()), (1, 2));
    assert_eq!(
        mw.get_content(&mut OpCtx::for_test(), &keys, root, "copy")
            .unwrap(),
        payload
    );

    let mut del = OpCtx::for_test();
    mw.delete_content(&mut del, &keys, root, "small").unwrap();
    assert_eq!((del.counts().deletes, del.counts().total()), (1, 1));
    mw.delete_content(&mut OpCtx::for_test(), &keys, root, "copy")
        .unwrap();
    assert_eq!(fs.storage_stats().objects, base);
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert_eq!(fs.metrics().counter_value(CAS_BLOCKS_WRITTEN), 0);
}

#[test]
fn overwrites_across_the_leaf_boundary_leave_no_block_behind() {
    let (fs, mut ctx) = setup();
    let small = patterned(ChunkParams::default().min as usize - 1);
    let big = FileContent::Simulated(24 << 20);
    // Shrink: the small overwrite displaces a block tree and frees it.
    fs.write(&mut ctx, "alice", &p("/shrink"), big.clone())
        .unwrap();
    assert!(fs.cluster().cas_live_blocks() > 1);
    fs.write(&mut ctx, "alice", &p("/shrink"), small.clone())
        .unwrap();
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert_eq!(fs.read(&mut ctx, "alice", &p("/shrink")).unwrap(), small);
    // Grow: the block tree displaces a whole object, which held no block.
    fs.write(&mut ctx, "alice", &p("/grow"), small.clone())
        .unwrap();
    fs.write(&mut ctx, "alice", &p("/grow"), big.clone())
        .unwrap();
    assert!(fs.cluster().cas_live_blocks() > 1);
    assert_eq!(fs.read(&mut ctx, "alice", &p("/grow")).unwrap(), big);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    for f in ["/shrink", "/grow"] {
        fs.delete_file(&mut ctx, "alice", &p(f)).unwrap();
    }
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
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

// ----- reclamation waves -----------------------------------------------------
//
// The tests below run the tuned profile on the paper's cluster
// (`ClusterConfig::default()`): a block DELETE or PUT costs 12 ms, a HEAD
// 9.5 ms, and a parallel section runs 32 items per wave.

/// One op on a fresh context: its request counts, virtual time and split.
fn spend(fs: &H2Cloud, op: impl FnOnce(&mut OpCtx)) -> OpCtx {
    let mut ctx = OpCtx::new(fs.cost_model());
    op(&mut ctx);
    ctx
}

fn counts(gets: u64, puts: u64, deletes: u64, heads: u64) -> h2util::BackendCounts {
    h2util::BackendCounts {
        gets,
        puts,
        deletes,
        heads,
        ..h2util::BackendCounts::default()
    }
}

#[test]
fn block_reclaims_and_increfs_are_content_time_not_op_time() {
    // A CAS delete's block reclaims and a COPY's increfs are content I/O:
    // the op slot holds the op's own work (path resolution, 4.84 ms here)
    // however many blocks the op touches.
    use h2util::trace::Stage;
    use std::time::Duration;
    let fs = H2Cloud::new(H2Config::tuned());
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/big"),
        FileContent::Simulated(24 << 20),
    )
    .unwrap();
    let blocks = fs.cluster().cas_live_blocks();
    assert_eq!(blocks, 12);
    let op_slot = |op: &dyn Fn(&mut OpCtx)| spend(&fs, op).stage_times().get(Stage::Op);
    let copy = op_slot(&|ctx| fs.copy(ctx, "alice", &p("/big"), &p("/big.copy")).unwrap());
    // The copy's delete reclaims nothing; the original's reclaims all 12.
    let shared = op_slot(&|ctx| fs.delete_file(ctx, "alice", &p("/big.copy")).unwrap());
    assert_eq!(fs.cluster().cas_live_blocks(), blocks);
    let last = op_slot(&|ctx| fs.delete_file(ctx, "alice", &p("/big")).unwrap());
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert_eq!(shared, Duration::from_micros(4_840));
    assert_eq!(last, shared);
    assert_eq!(copy, shared);

    // The paper profile's whole-object COPY is one server-side COPY, and
    // it is content time too.
    let fs = H2Cloud::new(H2Config::default());
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/big"),
        FileContent::Simulated(24 << 20),
    )
    .unwrap();
    let copy = spend(&fs, |ctx| {
        fs.copy(ctx, "alice", &p("/big"), &p("/big.copy")).unwrap()
    });
    assert_eq!(copy.counts().copies, 1);
    assert_eq!(
        copy.stage_times().get(Stage::Content),
        fs.cost_model().copy_cost(24 << 20)
    );
}

#[test]
fn reclamation_fans_out_one_wave_per_level() {
    // Each op's requests are exactly those of one-at-a-time loops; only
    // the modelled wall time is a wave's. Each expected time is the serial
    // loops' time less what the waves overlap.
    use std::time::Duration;
    let fs = H2Cloud::new(H2Config::tuned());
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    let write = |path: &str, size: u64| {
        spend(&fs, |ctx| {
            fs.write(ctx, "alice", &p(path), FileContent::Simulated(size))
                .unwrap()
        })
    };
    let delete = |path: &str| spend(&fs, |ctx| fs.delete_file(ctx, "alice", &p(path)).unwrap());
    // Two 24 MiB files: /big is 12 leaf blocks, /b 13.
    write("/big", 24 << 20);
    write("/b", 24 << 20);
    assert_eq!(fs.cluster().cas_live_blocks(), 25);
    let ms = |ms: f64| Duration::from_nanos((ms * 1e6).round() as u64);
    let mut got = Vec::new();
    let mut record = |op: &str, ctx: OpCtx| got.push((op.to_string(), ctx.counts(), ctx.elapsed()));

    // COPY: 12 increfs (HEADs) in one wave.
    record(
        "copy",
        spend(&fs, |ctx| {
            fs.copy(ctx, "alice", &p("/big"), &p("/big.copy")).unwrap()
        }),
    );
    // Overwrite /b with 20 MiB: 10 leaves are shared (HEADs), one is new,
    // and the displaced generation's 3 other leaves are reclaimed in one
    // release wave.
    record("overwrite", write("/b", 20 << 20));
    // The copy's delete reclaims nothing; the last delete of /big reclaims
    // its 12 leaves in one wave.
    record("delete copy", delete("/big.copy"));
    record("last delete", delete("/big"));
    // /b's 20 MiB: its 10 shared leaves and one new one.
    assert_eq!(fs.cluster().cas_live_blocks(), 11);

    // Wider than CAS_FANOUT: a 512 MiB file's leaves sit under branch
    // blocks. Its write PUTs its branch level as one wave; its delete
    // reclaims the branches in one release wave and their leaves in the
    // next, 32 to a wave.
    record("wide write", write("/wide", 512 << 20));
    record("wide delete", delete("/wide"));
    assert_eq!(fs.cluster().cas_live_blocks(), 11);

    let want = [
        // 12 HEADs of 9.5 ms overlap: 200.9 ms serial.
        ("copy", counts(2, 3, 1, 12), ms(200.9 - 11.0 * 9.5)),
        // 3 reclaims of 12 ms overlap: 135.62 ms serial.
        ("overwrite", counts(1, 4, 4, 10), ms(135.62 - 2.0 * 12.0)),
        // Reclaims nothing: the tombstone patch and the manifest delete.
        ("delete copy", counts(1, 2, 2, 0), ms(77.376)),
        // 12 reclaims overlap: 221.376 ms serial.
        (
            "last delete",
            counts(1, 2, 14, 0),
            ms(221.376 - 11.0 * 12.0),
        ),
        // 242 leaves under 2 branches; the branch PUTs overlap, so the
        // cheaper one (12.06 ms: 3 ms request, 9 ms write, 5 KiB at
        // 12 µs/KiB) drops out of 575.924 ms serial.
        ("wide write", counts(1, 247, 1, 0), ms(575.924 - 12.06)),
        // The delete copy's 77.376 ms, one wave for the 2 branches and
        // ceil(242 / 32) = 8 waves for the leaves: 3005.376 ms serial
        // (244 × 12 ms of reclaims).
        (
            "wide delete",
            counts(1, 2, 246, 0),
            ms(77.376 + 12.0 + 8.0 * 12.0),
        ),
    ]
    .map(|(op, c, t)| (op.to_string(), c, t));
    assert_eq!(got, want);
}

#[test]
fn seeded_faults_draw_the_same_over_cas_reclamation_and_gc() {
    // The waves issue the requests of the serial loops they replaced, in
    // the same order, so a seeded fault plan draws, fails and slows down
    // exactly the same requests: the acks, the fault stats, the GC report
    // and every request count are those of the serial loops. Only the
    // modelled time fell.
    use h2util::faults::{FaultPlan, FaultSpec, FaultStats};
    use h2util::Timestamp;
    use std::time::Duration;
    let fs = H2Cloud::new(H2Config::tuned());
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    let spec = FaultSpec::errors(0.05).with_slow(0.05, Duration::from_millis(3));
    fs.cluster()
        .set_fault_plan(Some(FaultPlan::uniform(42, spec).with_replica_errors(0.05)));
    let mut acks = String::new();
    let mut ops = OpCtx::new(fs.cost_model());
    let mut ack = |ok: bool| acks.push(if ok { '+' } else { '-' });
    for i in 0..6 {
        let f = p(&format!("/d/f{i}"));
        let g = p(&format!("/g{i}"));
        let ctx = &mut ops;
        ack(fs
            .write(ctx, "alice", &f, FileContent::Simulated(24 << 20))
            .is_ok());
        ack(fs.copy(ctx, "alice", &f, &g).is_ok());
        ack(fs
            .write(ctx, "alice", &f, FileContent::Simulated(20 << 20))
            .is_ok());
        ack(fs.delete_file(ctx, "alice", &g).is_ok());
    }
    ack(fs.rmdir(&mut ops, "alice", &p("/d")).is_ok());
    let mut gc = OpCtx::new(fs.cost_model());
    let horizon = Timestamp::new(u64::MAX, 0, h2util::NodeId(0));
    let report = h2cloud::gc::collect(&fs, &mut gc, "alice", horizon).unwrap();

    let stats = FaultStats {
        draws: 1181,
        errors: 18,
        slowdowns: 11,
        torn: 0,
        replica_errors: 38,
    };
    let gc_report = h2cloud::gc::GcReport {
        tuples_compacted: 6,
        objects_deleted: 8,
        rings_rewritten: 1,
        deletes_skipped: 0,
    };
    assert_eq!(
        (
            acks.as_str(),
            ops.counts(),
            report,
            gc.counts(),
            fs.cluster().fault_stats(),
            fs.cluster().cas_live_blocks()
        ),
        (
            "+++++++++++++++++-+-+++++",
            counts(29, 142, 45, 122),
            gc_report,
            counts(0, 1, 73, 0),
            Some(stats),
            0
        )
    );
    // Serial loops: 3 284.351263 ms and 909.473038 ms.
    assert_eq!(ops.elapsed(), Duration::from_nanos(2_563_351_263));
    assert_eq!(gc.elapsed(), Duration::from_nanos(69_242_519));
}
