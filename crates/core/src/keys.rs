//! Namespace-decorated relative paths and the object-key scheme (§3.1).
//!
//! Every directory owns a namespace UUID; every object H2 stores is named by
//! a *namespace-decorated relative path*:
//!
//! * child objects (file content or a sub-directory's descriptor) live at
//!   `<parent-ns>::<name>` — the paper's `N02::file1`;
//! * a directory's NameRing lives at `<ns>::/NameRing/`;
//! * patch objects live at `<ns>::/NameRing/.Node<NN>.Patch<K>` —
//!   the paper's `N97::/NameRing/.Node01.Patch03`.
//!
//! `/` cannot appear in child names ([`h2fsapi::FsPath`] forbids it), so the
//! `/NameRing/` suffix can never collide with a real child.

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::sync::Arc;

use h2util::{NamespaceId, NodeId, Timestamp};
use swiftsim::ObjectKey;

/// Descriptor object for one directory: the "directory … converted to an
/// ASCII string corresponding to its namespace" of §4.4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirDescriptor {
    /// The directory's namespace UUID.
    pub ns: NamespaceId,
    /// Its name under the parent (purely informational; the key carries the
    /// authoritative name).
    pub name: String,
    /// Creation time.
    pub created: Timestamp,
}

/// Key factory binding an account to H2Cloud's (unindexed) container. It
/// holds the account and container names in the shared form [`ObjectKey`]
/// wants, so minting a key costs one allocation: the object name. It also
/// hashes the account name, once, for the middleware's in-memory maps.
#[derive(Debug, Clone)]
pub struct H2Keys {
    account: Arc<str>,
    account_hash: u64,
    container: Arc<str>,
}

/// The container every H2 object lives in. Unindexed: H2 needs no
/// file-path DB — that is the point of the design.
pub const H2_CONTAINER: &str = "h2";

thread_local! {
    /// Where object names are formatted before being copied, exactly
    /// sized, into their `Arc<str>`; reused so formatting allocates nothing.
    static NAME_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    /// The container name every factory made on this thread hands out (one
    /// per thread, so client threads do not share its refcount).
    static CONTAINER: Arc<str> = H2_CONTAINER.into();
}

impl H2Keys {
    pub fn new(account: &str) -> Self {
        H2Keys {
            account: account.into(),
            account_hash: h2util::hash64(account.as_bytes()),
            container: CONTAINER.with(Arc::clone),
        }
    }

    pub fn account(&self) -> &str {
        &self.account
    }

    /// The account name in its shared form (a clone allocates nothing).
    pub(crate) fn account_shared(&self) -> &Arc<str> {
        &self.account
    }

    /// XXH64 of the account name.
    pub(crate) fn account_hash(&self) -> u64 {
        self.account_hash
    }

    fn key(&self, name: fmt::Arguments<'_>) -> ObjectKey {
        let name = NAME_BUF.with_borrow_mut(|buf| {
            buf.clear();
            buf.write_fmt(name).expect("formatting into a String");
            Arc::from(buf.as_str())
        });
        ObjectKey {
            account: self.account.clone(),
            container: self.container.clone(),
            name,
        }
    }

    /// Namespace-decorated relative path of a direct child.
    pub fn child_rel(ns: NamespaceId, name: &str) -> String {
        format!("{ns}::{name}")
    }

    /// Object key of a direct child (file content or dir descriptor).
    pub fn child(&self, ns: NamespaceId, name: &str) -> ObjectKey {
        self.key(format_args!("{ns}::{name}"))
    }

    /// Object key of a namespace's NameRing.
    pub fn namering(&self, ns: NamespaceId) -> ObjectKey {
        self.key(format_args!("{ns}::/NameRing/"))
    }

    /// Object key of one patch in a node's chain for a NameRing.
    pub fn patch(&self, ns: NamespaceId, node: NodeId, patch_no: u32) -> ObjectKey {
        self.key(format_args!(
            "{ns}::/NameRing/.Node{node}.Patch{patch_no:04}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> NamespaceId {
        NamespaceId::new(6, NodeId(1), 1_469_346_604_539)
    }

    #[test]
    fn child_keys_are_namespace_decorated() {
        let k = H2Keys::new("alice");
        let key = k.child(ns(), "ubuntu");
        assert_eq!(key.ring_key(), "/alice/h2/06.01.1469346604539::ubuntu");
        assert_eq!(
            H2Keys::child_rel(ns(), "file1"),
            "06.01.1469346604539::file1"
        );
    }

    #[test]
    fn keys_share_the_factorys_account_and_container() {
        let k = H2Keys::new("alice");
        let (a, b) = (k.child(ns(), "x"), k.namering(ns()));
        assert!(Arc::ptr_eq(&a.account, &b.account));
        assert!(Arc::ptr_eq(&a.container, &b.container));
        assert_eq!(
            a,
            swiftsim::ObjectKey::new("alice", H2_CONTAINER, &H2Keys::child_rel(ns(), "x"))
        );
    }

    #[test]
    fn namering_key_shape() {
        let k = H2Keys::new("alice");
        assert_eq!(
            k.namering(ns()).ring_key(),
            "/alice/h2/06.01.1469346604539::/NameRing/"
        );
    }

    #[test]
    fn patch_key_matches_paper_scheme() {
        let k = H2Keys::new("alice");
        let key = k.patch(ns(), NodeId(1), 3);
        assert_eq!(
            key.ring_key(),
            "/alice/h2/06.01.1469346604539::/NameRing/.Node01.Patch0003"
        );
    }

    #[test]
    fn namering_key_cannot_collide_with_children() {
        // A child would need the name "/NameRing/" which FsPath forbids
        // (contains '/').
        assert!(h2fsapi::FsPath::validate_name("/NameRing/").is_err());
    }

    #[test]
    fn distinct_namespaces_distinct_keys() {
        let k = H2Keys::new("a");
        let other = NamespaceId::new(7, NodeId(1), 1);
        assert_ne!(k.child(ns(), "x"), k.child(other, "x"));
        assert_ne!(k.namering(ns()), k.namering(other));
    }
}
