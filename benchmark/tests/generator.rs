//! The op-stream generator: every operation is valid against an
//! independent, deliberately naive reference model and carries the answer
//! that model gives; the incremental bookkeeping never drifts; the pinned
//! fingerprints hold.

use std::collections::BTreeMap;

use h2perf::model::{detail_hash, names_hash, Account, Kind, Op};
use h2perf::workloads::{self, PINNED_SEED};

/// Path string to `None` (directory) or `Some(size)` (file). Everything is
/// a scan; nothing is shared with the generator's own model.
#[derive(Default)]
struct Reference(BTreeMap<String, Option<u64>>);

impl Reference {
    fn of(account: &Account) -> Reference {
        let mut r = Reference::default();
        r.0.insert("/".into(), None);
        let (dirs, files) = account.spec();
        for d in dirs {
            r.0.insert(d.to_string(), None);
        }
        for (f, size) in files {
            r.0.insert(f.to_string(), Some(size));
        }
        r
    }

    fn children(&self, dir: &str) -> Vec<(&str, Option<u64>)> {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        self.0
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .filter(|(p, _)| p.len() > prefix.len() && !p[prefix.len()..].contains('/'))
            .map(|(p, e)| (&p[prefix.len()..], *e))
            .collect()
    }

    fn subtree(&self, root: &str) -> Vec<(String, Option<u64>)> {
        let prefix = format!("{root}/");
        self.0
            .iter()
            .filter(|(p, _)| *p == root || p.starts_with(&prefix))
            .map(|(p, e)| (p.clone(), *e))
            .collect()
    }

    fn parent_is_dir(&self, path: &str) -> bool {
        let parent = match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => return false,
        };
        self.0.get(parent) == Some(&None)
    }

    /// Check `op` and apply it; `Err` says what was wrong.
    fn step(&mut self, op: &Op) -> Result<(), String> {
        let path = op.path.to_string();
        let to = op.to.as_ref().map(|p| p.to_string());
        let here = self.0.get(&path).copied();
        let expect = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{} {path}: {what}", op.kind.label()))
            }
        };
        match op.kind {
            Kind::Stat | Kind::Read => expect(here == Some(Some(op.size)), "not that file")?,
            Kind::StatAbsent => expect(here.is_none(), "exists")?,
            Kind::List | Kind::ListDetailed => {
                expect(here == Some(None), "not a directory")?;
                let kids = self.children(&path);
                let hash = kids.iter().fold(0, |h, (name, e)| {
                    h ^ if op.kind == Kind::List {
                        names_hash(name)
                    } else {
                        detail_hash(name, e.is_none(), e.unwrap_or(0))
                    }
                });
                expect(
                    (kids.len() as u64, hash) == (op.size, op.aux),
                    "listing differs",
                )?;
            }
            Kind::Write | Kind::WriteShared => {
                expect(self.parent_is_dir(&path), "no parent directory")?;
                expect(here != Some(None), "is a directory")?;
                self.0.insert(path, Some(op.size));
            }
            Kind::Overwrite => {
                expect(matches!(here, Some(Some(_))), "no such file")?;
                self.0.insert(path, Some(op.size));
            }
            Kind::Append => {
                expect(
                    matches!(here, Some(Some(old)) if old < op.size),
                    "does not grow",
                )?;
                self.0.insert(path, Some(op.size));
            }
            Kind::Delete => {
                expect(matches!(here, Some(Some(_))), "no such file")?;
                self.0.remove(&path);
            }
            Kind::Mkdir => {
                expect(here.is_none() && self.parent_is_dir(&path), "cannot create")?;
                self.0.insert(path, None);
            }
            Kind::Rmdir => {
                expect(here == Some(None) && path != "/", "no such directory")?;
                for (p, _) in self.subtree(&path) {
                    self.0.remove(&p);
                }
            }
            Kind::Mv | Kind::Copy => {
                let to = to.ok_or("no destination")?;
                expect(here.is_some(), "no source")?;
                expect(
                    !self.0.contains_key(&to) && self.parent_is_dir(&to),
                    "destination taken or orphaned",
                )?;
                expect(!to.starts_with(&format!("{path}/")), "into itself")?;
                for (p, e) in self.subtree(&path) {
                    if op.kind == Kind::Mv {
                        self.0.remove(&p);
                    }
                    self.0.insert(format!("{to}{}", &p[path.len()..]), e);
                }
            }
        }
        Ok(())
    }
}

#[test]
fn a_hundred_thousand_ops_per_workload_are_valid_and_the_model_never_drifts() {
    for w in workloads::ALL {
        // The last account of a client: small trees everywhere, and on the
        // churn workloads one without the flat directory, so the naive
        // reference stays quick. Account 0 (with it) gets a shorter check.
        for (index, ops) in [(w.accounts_per_client - 1, 100_000), (0, 10_000)] {
            let mut account = Account::new(String::new(), w.shape, 7, 1, index);
            let mut reference = Reference::of(&account);
            let mut seen = [0u64; h2perf::model::KINDS];
            for i in 0..ops {
                let op = account.next_op();
                seen[op.kind as usize] += 1;
                if let Err(e) = reference.step(&op) {
                    panic!("{} account {index} op {i}: {e}", w.name);
                }
                if i % 10_000 == 0 {
                    account.audit().unwrap();
                }
            }
            account.audit().unwrap();
            let (dirs, files) = account.spec();
            assert_eq!(
                reference.0.len(),
                1 + dirs.len() + files.len(),
                "{}",
                w.name
            );
            // Every kind the mix names was generated.
            for kind in Kind::ALL {
                let wanted = w.shape.mix[kind as usize] > 0.0;
                assert!(
                    !wanted || seen[kind as usize] > 0,
                    "{}: no {}",
                    w.name,
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn fresh_naming_keeps_the_population_near_its_start() {
    let w = workloads::by_name("churn").unwrap();
    let mut account = Account::new(String::new(), w.shape, 3, 0, 1);
    let start = account.live_files();
    for _ in 0..200_000 {
        account.next_op();
        let now = account.live_files();
        assert!(
            now * 10 >= start * 9 && now * 10 <= start * 11,
            "{now} files, started with {start}"
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
    for w in workloads::ALL {
        assert_eq!(w.fingerprint(5), w.fingerprint(5), "{}", w.name);
        assert_ne!(w.fingerprint(5), w.fingerprint(6), "{}", w.name);
    }
}

#[test]
fn pinned_fingerprints_hold() {
    for w in workloads::ALL {
        assert_eq!(
            format!("{:032x}", w.fingerprint(PINNED_SEED)),
            format!("{:032x}", w.pin),
            "{}: the op stream for seed {PINNED_SEED} changed; if that is \
             intended, take the new pin from `h2perf fingerprint`",
            w.name
        );
    }
    let pin = |name| workloads::by_name(name).unwrap().pin;
    assert_eq!(pin("churn"), pin("churn_degraded"));
}
