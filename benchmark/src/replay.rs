//! Carry one generated operation out against a `CloudFs` and check the
//! answer against what the model said it must be.

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath};
use h2util::{H2Error, OpCtx, Result};

use crate::model::{detail_hash, names_hash, Kind, Op};

/// Count and hash of a plain listing, as the model keeps them.
pub fn names_digest(names: &[String]) -> (u64, u64) {
    let hash = names.iter().fold(0, |h, n| h ^ names_hash(n));
    (names.len() as u64, hash)
}

/// Count and hash of a detailed listing, as the model keeps them.
pub fn detail_digest(entries: &[DirEntry]) -> (u64, u64) {
    let hash = entries.iter().fold(0, |h, e| {
        h ^ detail_hash(&e.name, e.kind == EntryKind::Directory, e.size)
    });
    (entries.len() as u64, hash)
}

fn destination(op: &Op) -> Result<&FsPath> {
    op.to
        .as_deref()
        .ok_or_else(|| H2Error::InvalidPath(format!("{} without a destination", op.kind.label())))
}

/// Issue `op`. `Ok(true)`: the system answered and the answer matches the
/// model. `Ok(false)`: it answered something else. `Err`: the operation
/// failed. The caller counts the last two as failed operations.
pub fn apply<F: CloudFs>(fs: &F, ctx: &mut OpCtx, account: &str, op: &Op) -> Result<bool> {
    let path: &FsPath = &op.path;
    Ok(match op.kind {
        Kind::Stat => {
            let e = fs.stat(ctx, account, path)?;
            e.kind == EntryKind::File && e.size == op.size
        }
        Kind::StatAbsent => match fs.stat(ctx, account, path) {
            Err(H2Error::NotFound(_)) => true,
            Ok(_) => false,
            Err(e) => return Err(e),
        },
        Kind::Read => fs.read(ctx, account, path)?.len() == op.size,
        Kind::List => names_digest(&fs.list(ctx, account, path)?) == (op.size, op.aux),
        Kind::ListDetailed => {
            detail_digest(&fs.list_detailed(ctx, account, path)?) == (op.size, op.aux)
        }
        // Overwrite and append are plain writes: simulated content is
        // identified by its path, so the grown file shares its prefix with
        // the old generation by construction.
        Kind::Write | Kind::Overwrite | Kind::Append => {
            fs.write(ctx, account, path, FileContent::Simulated(op.size))?;
            true
        }
        Kind::WriteShared => {
            let content = FileContent::SimulatedShared {
                size: op.size,
                seed: op.aux,
            };
            fs.write(ctx, account, path, content)?;
            true
        }
        Kind::Delete => {
            fs.delete_file(ctx, account, path)?;
            true
        }
        Kind::Mkdir => {
            fs.mkdir(ctx, account, path)?;
            true
        }
        Kind::Rmdir => {
            fs.rmdir(ctx, account, path)?;
            true
        }
        Kind::Mv => {
            fs.mv(ctx, account, path, destination(op)?)?;
            true
        }
        Kind::Copy => {
            fs.copy(ctx, account, path, destination(op)?)?;
            true
        }
    })
}
