//! Cross-backend equivalence: every filesystem design must implement the
//! same `CloudFs` semantics. Random operation sequences are applied to the
//! in-memory reference model and to each backend; outcomes (success or
//! error class) and resulting directory listings must agree.

use h2baselines::{CasFs, CumulusFs, DpFs, StaticPartitionFs, SwiftFs};
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FsPath};
use h2util::rng::rng;
use h2util::OpCtx;
use h2workload::{ModelFs, Op, Trace, TraceMix};
use swiftsim::{Cluster, ClusterConfig};

fn backends() -> Vec<Box<dyn CloudFs>> {
    let tiny = || Cluster::new(ClusterConfig::tiny());
    vec![
        Box::new(H2Cloud::new(H2Config::for_test())) as Box<dyn CloudFs>,
        Box::new(H2Cloud::new(H2Config {
            middlewares: 1,
            mode: MaintenanceMode::Deferred,
            cluster: ClusterConfig::tiny(),
            cache_capacity: 64,
            trace_sample: 0.0,
            ..H2Config::default()
        })),
        Box::new(SwiftFs::new(tiny(), true)),
        Box::new(SwiftFs::new(tiny(), false)),
        Box::new(DpFs::new(tiny(), 3)),
        Box::new(DpFs::single_index(tiny())),
        Box::new(StaticPartitionFs::new(tiny(), 4, u64::MAX)),
        Box::new(CumulusFs::new(tiny())),
        Box::new(CasFs::new(tiny())),
    ]
}

/// Compare full recursive listings between model and backend.
fn assert_same_tree(model: &ModelFs, fs: &dyn CloudFs, account: &str, label: &str) {
    let mut ctx = OpCtx::for_test();
    let mut stack = vec![FsPath::root()];
    while let Some(dir) = stack.pop() {
        let mut expected = model.list_detailed(&dir).expect("model dir listing");
        let mut got = fs
            .list_detailed(&mut ctx, account, &dir)
            .unwrap_or_else(|e| panic!("{label}: LIST {dir} failed: {e}"));
        expected.sort_by(|a, b| a.name.cmp(&b.name));
        got.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(
            got.len(),
            expected.len(),
            "{label}: {dir} child count mismatch: {:?} vs {:?}",
            got.iter().map(|e| &e.name).collect::<Vec<_>>(),
            expected.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.name, e.name, "{label}: {dir} name mismatch");
            assert_eq!(g.kind, e.kind, "{label}: {dir}/{} kind mismatch", g.name);
            if g.kind == h2fsapi::EntryKind::File {
                assert_eq!(g.size, e.size, "{label}: {dir}/{} size mismatch", g.name);
            }
        }
        for e in expected {
            if e.kind == h2fsapi::EntryKind::Directory {
                stack.push(dir.child(&e.name).expect("valid name"));
            }
        }
    }
}

#[test]
fn random_traces_agree_with_the_model_on_every_backend() {
    for seed in [1u64, 7, 1234] {
        // Generate a valid trace once (against a throwaway model).
        let mut gen_model = ModelFs::new();
        let trace = Trace::generate(&mut rng(seed), &mut gen_model, 250, &TraceMix::dir_heavy());
        for fs in backends() {
            let label = format!("{} (seed {seed})", fs.name());
            let mut ctx = OpCtx::for_test();
            fs.create_account(&mut ctx, "acct").expect("account");
            let mut model = ModelFs::new();
            for op in &trace.ops {
                let expected = Trace::apply_model(&mut model, op);
                let got = Trace::apply_fs(fs.as_ref(), &mut ctx, "acct", op);
                match (&expected, &got) {
                    (Ok(()), Ok(())) => {}
                    (Err(e), Err(g)) => assert_eq!(
                        e.class(),
                        g.class(),
                        "{label}: {op:?} error class mismatch ({e} vs {g})"
                    ),
                    _ => panic!("{label}: {op:?} diverged: model={expected:?} fs={got:?}"),
                }
            }
            fs.quiesce();
            assert_same_tree(&model, fs.as_ref(), "acct", &label);
        }
    }
}

#[test]
fn invalid_operations_fail_identically_everywhere() {
    let cases: Vec<(&str, Op)> = vec![
        ("rmdir root", Op::Rmdir(FsPath::root())),
        ("read missing", Op::Read(FsPath::parse("/ghost").unwrap())),
        (
            "mkdir without parent",
            Op::Mkdir(FsPath::parse("/no/such/parent").unwrap()),
        ),
        (
            "mv into own subtree",
            Op::Mv(
                FsPath::parse("/a").unwrap(),
                FsPath::parse("/a/b/c").unwrap(),
            ),
        ),
        (
            "delete a directory as file",
            Op::Delete(FsPath::parse("/a").unwrap()),
        ),
        (
            "copy onto existing",
            Op::Copy(FsPath::parse("/a").unwrap(), FsPath::parse("/d").unwrap()),
        ),
    ];
    for fs in backends() {
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "acct").expect("account");
        let mut model = ModelFs::new();
        for setup in [
            Op::Mkdir(FsPath::parse("/a").unwrap()),
            Op::Mkdir(FsPath::parse("/a/b").unwrap()),
            Op::Mkdir(FsPath::parse("/d").unwrap()),
        ] {
            Trace::apply_model(&mut model, &setup).unwrap();
            Trace::apply_fs(fs.as_ref(), &mut ctx, "acct", &setup).unwrap();
        }
        for (what, op) in &cases {
            let expected = Trace::apply_model(&mut model, op).expect_err("model rejects");
            let got = Trace::apply_fs(fs.as_ref(), &mut ctx, "acct", op);
            match got {
                Ok(()) => panic!(
                    "{}: '{what}' unexpectedly succeeded (model said {expected})",
                    fs.name()
                ),
                Err(err) => assert_eq!(
                    err.code(),
                    expected.code(),
                    "{}: '{what}' error class mismatch",
                    fs.name()
                ),
            }
        }
    }
}
