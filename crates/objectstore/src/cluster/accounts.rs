//! Accounts and containers, the per-container listing index (with its
//! asynchronous-update queue), the logical catalog of live objects and the
//! storage stats read off them.

use super::*;

#[derive(Debug)]
pub(super) struct ContainerState {
    pub(super) indexed: bool,
    pub(super) index: ContainerIndex,
}

/// Account → container → state: both levels are looked up by `&str`, so a
/// request checks its container without building a key.
pub(super) type ContainerShard = OrderedRwLock<HashMap<String, HashMap<String, ContainerState>>>;
pub(super) type CatalogShard = OrderedRwLock<KeyMap<u64>>;

/// A deferred container-DB update.
#[derive(Debug, Clone)]
pub(super) enum IndexUpdate {
    Upsert {
        key: ObjectKey,
        size: u64,
        ms: u64,
        ctype: String,
    },
    Remove {
        key: ObjectKey,
    },
}

impl Cluster {
    /// Switch the container listing DB to asynchronous (eventually
    /// consistent) updates, like real Swift's container updaters.
    pub fn set_async_index(&self, on: bool) {
        self.async_index.store(on, Ordering::Relaxed);
    }

    /// Apply all queued container-DB updates. Returns how many were
    /// applied — the moral equivalent of Swift's container-updater daemon
    /// catching up.
    pub fn flush_index_updates(&self) -> usize {
        let drained: Vec<IndexUpdate> = self.pending_index.write().drain(..).collect();
        let n = drained.len();
        for u in drained {
            match u {
                IndexUpdate::Upsert {
                    key,
                    size,
                    ms,
                    ctype,
                } => self.index_apply_upsert(&key, size, ms, &ctype),
                IndexUpdate::Remove { key } => {
                    self.index_apply_remove(&key);
                }
            }
        }
        n
    }

    /// Queued (not yet applied) container-DB updates.
    pub fn pending_index_updates(&self) -> usize {
        self.pending_index.read().len()
    }

    fn container_shard(&self, account: &str, container: &str) -> &ContainerShard {
        let h = hash64(account.as_bytes()) ^ hash64(container.as_bytes()).rotate_left(1);
        &self.containers[h as usize % self.containers.len()]
    }

    fn catalog_shard(&self, hash: u64) -> &CatalogShard {
        &self.catalog[stripe_of(hash, self.catalog.len())]
    }

    /// Register an account free of charge, for test fixtures and harness
    /// setup: every `CloudFs` model creates its accounts through
    /// [`Cluster::create_account_ctx`].
    pub fn create_account(&self, name: &str) -> Result<()> {
        if !self.accounts.write().insert(name.to_string()) {
            return Err(H2Error::AlreadyExists(format!("account {name}")));
        }
        Ok(())
    }

    /// Create account `name` with its one `container` (`indexed` as in
    /// [`Cluster::create_container`]), charging the caller's context one
    /// account-DB row for each: the CREATE-ACCOUNT path of every filesystem
    /// model.
    pub fn create_account_ctx(
        &self,
        ctx: &mut OpCtx,
        name: &str,
        container: &str,
        indexed: bool,
    ) -> Result<()> {
        ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        self.create_account(name)?;
        // h2lint: allow(vtime-accounting): a second row, the container's, not the account's again
        ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        self.create_container(name, container, indexed)
    }

    /// Delete an account, its containers, and its objects, charging the
    /// account-DB row removal plus one DELETE per dropped object to `ctx`.
    /// Replicas on downed devices are deliberately left in place — a down
    /// node cannot be asked to do anything, exactly as in a real cluster —
    /// and are reconciled by [`Cluster::repair`] once the node returns
    /// (repair purges replicas whose account no longer exists).
    pub fn delete_account(&self, ctx: &mut OpCtx, name: &str) -> Result<()> {
        if !self.accounts.write().remove(name) {
            return Err(H2Error::NoSuchAccount(name.to_string()));
        }
        for shard in self.containers.iter() {
            shard.write().remove(name);
        }
        let prefix = format!("/{name}/");
        let doomed: Vec<RingKey> = self
            .catalog
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .keys()
                    .filter(|k| k.as_str().starts_with(&prefix))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        let dropped = doomed.len();
        let topo = self.topology();
        for key in doomed {
            let at = key.at();
            let _guard = self.op_lock(at.hash).lock();
            self.catalog_remove(at);
            // All nodes, not just ring members: replicas of a mid-migration
            // key may still sit on drained (ex-ring) devices.
            for n in &topo.nodes {
                if !n.is_down() {
                    n.purge(at);
                }
            }
        }
        ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        for _ in 0..dropped {
            ctx.charge(PrimKind::Delete, self.cfg.cost.delete_cost());
        }
        Ok(())
    }

    pub fn account_exists(&self, name: &str) -> bool {
        self.accounts.read().contains(name)
    }

    /// Create a container; `indexed` controls whether the Swift file-path DB
    /// is maintained for it (H2Cloud containers say no).
    pub fn create_container(&self, account: &str, container: &str, indexed: bool) -> Result<()> {
        if !self.account_exists(account) {
            return Err(H2Error::NoSuchAccount(account.to_string()));
        }
        let mut shard = self.container_shard(account, container).write();
        let containers = shard.entry(account.to_string()).or_default();
        if containers.contains_key(container) {
            return Err(H2Error::AlreadyExists(format!(
                "container {account}/{container}"
            )));
        }
        containers.insert(
            container.to_string(),
            ContainerState {
                indexed,
                index: ContainerIndex::new(),
            },
        );
        Ok(())
    }

    /// Run `f` on a container's state, if the container exists.
    pub(super) fn with_container<T>(
        &self,
        account: &str,
        container: &str,
        f: impl FnOnce(&ContainerState) -> T,
    ) -> Option<T> {
        let shard = self.container_shard(account, container).read();
        shard.get(account)?.get(container).map(f)
    }

    /// As [`Cluster::with_container`], for updates.
    fn with_container_mut<T>(
        &self,
        key: &ObjectKey,
        f: impl FnOnce(&mut ContainerState) -> T,
    ) -> Option<T> {
        let mut shard = self.container_shard(&key.account, &key.container).write();
        shard
            .get_mut(&*key.account)?
            .get_mut(&*key.container)
            .map(f)
    }

    pub(super) fn check_container(&self, key: &ObjectKey) -> Result<()> {
        self.check_container_of(&key.account, &key.container)
    }

    pub(super) fn check_container_of(&self, account: &str, container: &str) -> Result<()> {
        self.with_container(account, container, |_| ())
            .ok_or_else(|| H2Error::NotFound(format!("container {account}/{container}")))
    }

    /// Rows currently held in this container's listing DB (0 if unindexed).
    pub fn index_rows(&self, account: &str, container: &str) -> u64 {
        self.with_container(account, container, |c| c.index.len() as u64)
            .unwrap_or(0)
    }

    /// Bytes occupied by listing-DB rows across all containers.
    pub fn total_index_bytes(&self) -> u64 {
        self.sum_indexes(ContainerIndex::index_bytes)
    }

    /// Rows across all indexed containers.
    pub fn total_index_rows(&self) -> u64 {
        self.sum_indexes(|index| index.len() as u64)
    }

    /// `f` summed over the listing DBs of every indexed container.
    fn sum_indexes(&self, f: impl Fn(&ContainerIndex) -> u64) -> u64 {
        let mut total = 0;
        for shard in self.containers.iter() {
            let shard = shard.read();
            let states = shard.values().flat_map(HashMap::values);
            total += states
                .filter(|c| c.indexed)
                .map(|c| f(&c.index))
                .sum::<u64>();
        }
        total
    }

    /// Logical live objects in the cloud (replicas not multiple-counted).
    pub fn object_count(&self) -> u64 {
        self.catalog
            .iter()
            .map(|shard| shard.read().len() as u64)
            .sum()
    }

    /// Logical live bytes in the cloud.
    pub fn byte_count(&self) -> u64 {
        self.catalog_bytes.load(Ordering::Relaxed)
    }

    /// Live replica count per device (balance inspection).
    pub fn device_loads(&self) -> Vec<(DeviceId, usize)> {
        self.topology()
            .nodes
            .iter()
            .map(|n| (n.id(), n.replica_count()))
            .collect()
    }

    fn container_indexed(&self, key: &ObjectKey) -> bool {
        self.with_container(&key.account, &key.container, |c| c.indexed)
            .unwrap_or(false)
    }

    fn index_apply_upsert(&self, key: &ObjectKey, size: u64, ms: u64, ctype: &str) {
        self.with_container_mut(key, |state| {
            if state.indexed {
                state.index.upsert(
                    &key.name,
                    IndexRecord {
                        size,
                        modified_ms: ms,
                        content_type: ctype.to_string(),
                    },
                );
            }
        });
    }

    fn index_apply_remove(&self, key: &ObjectKey) -> bool {
        self.with_container_mut(key, |state| state.indexed && state.index.remove(&key.name))
            .unwrap_or(false)
    }

    /// Record a write in the container's listing DB, if it keeps one (H2's
    /// containers do not, and pay nothing here). The content type is the
    /// `content-type` entry of the written `meta`.
    pub(super) fn index_upsert(
        &self,
        ctx: &mut OpCtx,
        key: &ObjectKey,
        size: u64,
        ms: u64,
        meta: &Meta,
    ) {
        if !self.container_indexed(key) {
            return;
        }
        let ctype = meta.get("content-type").map_or("", String::as_str);
        if self.async_index.load(Ordering::Relaxed) {
            // Asynchronous container update: the client does not wait (and
            // is not charged); the listing lags until the updater runs.
            self.pending_index.write().push_back(IndexUpdate::Upsert {
                key: key.clone(),
                size,
                ms,
                ctype: ctype.to_string(),
            });
        } else {
            self.index_apply_upsert(key, size, ms, ctype);
            ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        }
    }

    pub(super) fn index_remove(&self, ctx: &mut OpCtx, key: &ObjectKey) {
        if !self.container_indexed(key) {
            return;
        }
        if self.async_index.load(Ordering::Relaxed) {
            self.pending_index
                .write()
                .push_back(IndexUpdate::Remove { key: key.clone() });
        } else if self.index_apply_remove(key) {
            ctx.charge(PrimKind::DbUpdate, self.cfg.cost.db_update_cost());
        }
    }

    pub(super) fn catalog_put(&self, key: &WriteKey<'_>, size: u64) {
        let at = key.at();
        let mut cat = self.catalog_shard(at.hash).write();
        match cat.get_mut(&at as &dyn Keyed) {
            Some(old) => {
                self.catalog_bytes.fetch_sub(*old, Ordering::Relaxed);
                *old = size;
            }
            None => {
                cat.insert(key.owned(), size);
            }
        }
        self.catalog_bytes.fetch_add(size, Ordering::Relaxed);
    }

    pub(super) fn catalog_remove(&self, key: KeyRef<'_>) {
        let removed = self
            .catalog_shard(key.hash)
            .write()
            .remove(&key as &dyn Keyed);
        if let Some(size) = removed {
            self.catalog_bytes.fetch_sub(size, Ordering::Relaxed);
        }
    }
}
